#!/usr/bin/env python3
"""Quickstart: a contended counter, four ways.

Builds the simulated TILE-Gx-like hybrid manycore, implements one
linearizable counter on top of each synchronization approach from the
paper, and prints throughput/latency at a single concurrency level.

Run:  python examples/quickstart.py [num_threads]
"""

import sys

from repro.workload import WorkloadSpec, run_counter_benchmark


def main() -> None:
    num_threads = int(sys.argv[1]) if len(sys.argv) > 1 else 20
    spec = WorkloadSpec()  # the paper's methodology: op + random think

    print(f"Concurrent counter, {num_threads} application threads, "
          f"simulated TILE-Gx @ 1.2 GHz\n")
    print(f"{'approach':>12s} {'Mops/s':>8s} {'latency':>9s} {'CAS/op':>7s} "
          f"{'fairness':>9s}")
    for approach in ("mp-server", "HybComb", "shm-server", "CC-Synch"):
        r = run_counter_benchmark(approach, num_threads, spec=spec)
        print(f"{approach:>12s} {r.throughput_mops:8.1f} "
              f"{r.mean_latency_cycles:7.0f} cy {r.cas_per_op:7.2f} "
              f"{r.fairness_ratio:9.2f}")

    print("\nThe two hardware-message-passing approaches (mp-server, HybComb)")
    print("win because their servicing thread reads requests from its local")
    print("hardware queue and responds asynchronously: no coherence stalls")
    print("remain on the critical path (see `python -m repro run fig4a`).")


if __name__ == "__main__":
    main()
