"""Benchmark methodology and metrics (Section 5.2 of the paper).

"In each experiment, a specified number of application threads
repeatedly execute operations on a concurrent object.  After every
operation, a thread executes a random number of empty loop iterations
(at most 50). ... We pin threads to cores in ascending order. ... Every
value reported in the graphs is an average over ten one-second runs."

We reproduce the same loop in simulated time: a warm-up window followed
by a measurement window; throughput is ops completed in the window
converted to Mops/s at the configured clock; latency is the mean
request time observed by application threads.  Because the simulator is
deterministic given a seed, averaging over ten wall-clock seconds is
replaced by one sufficiently long window per seed (and multiple seeds
where variance matters).

* :mod:`repro.workload.driver` -- the measurement window both loops
  share (warm-up, measure, the common result fields) and the closed
  benchmark loop.
* :mod:`repro.workload.metrics` -- the :class:`RunResult` record with
  throughput, latency, fairness, stall breakdowns, combining rate and
  atomic-instruction rates.
* :mod:`repro.workload.openloop` -- open-loop arrival processes,
  bounded admission queues with drop/retry/circuit-breaker policies
  (the one dispatch path, through ``apply_op(..., timeout=)``), and the
  overload-degradation metrics (goodput, p99.9, time-in-SLO).
* :mod:`repro.workload.scenarios` -- the approach table
  (``build_approach``: a paper label to its primitive and client
  threads) and assembled experiments (counter / queue / stack /
  variable-length CS) on any approach; these are the entry points the
  figures and the public quickstart use.
"""

from repro.workload.driver import WorkloadSpec, run_workload
from repro.workload.metrics import RunResult
from repro.workload.openloop import (
    AdmissionQueue,
    AdmissionSpec,
    ArrivalSpec,
    OpenLoopSpec,
    run_openloop_workload,
)
from repro.workload.scenarios import (
    APPROACH_BUILDERS,
    run_counter_benchmark,
    run_cs_length_benchmark,
    run_queue_benchmark,
    run_stack_benchmark,
)

__all__ = [
    "APPROACH_BUILDERS",
    "AdmissionQueue",
    "AdmissionSpec",
    "ArrivalSpec",
    "OpenLoopSpec",
    "RunResult",
    "WorkloadSpec",
    "run_openloop_workload",
    "run_counter_benchmark",
    "run_cs_length_benchmark",
    "run_queue_benchmark",
    "run_stack_benchmark",
    "run_workload",
]
