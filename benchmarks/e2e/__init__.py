"""End-to-end benchmark of the simulator: five contended-counter workloads.

See ``README.md`` beside this file; run with
``PYTHONPATH=src python -m benchmarks.e2e``.
"""
