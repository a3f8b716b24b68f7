"""Overload experiment: offered load past capacity, `overload`.

The paper's figures are closed-loop: N threads self-clock at the
service rate, so they can show the *knee* of the latency curve but
never the regime past it.  This experiment drives the same contended
counter with **open-loop** traffic swept from 0.5x to 2x each
approach's measured capacity (see :mod:`repro.workload.openloop`) and
plots the load-latency hockey stick:

* with **unbounded** admission, queue depth and p99.9 sojourn grow
  without bound as soon as offered load crosses capacity;
* with **bounded-drop** (and retry/backoff) admission, depth and tail
  latency stay bounded and goodput degrades gracefully -- the system
  sheds what it cannot serve instead of queueing it forever.

Capacity is measured first, per approach, with a closed-loop run, so
the x-axis is a *relative* offered-load multiplier and the series are
comparable across approaches with different absolute throughput.

A final fault-wired point crashes the fault-tolerant MP-SERVER's
primary at 1.5x capacity under bounded admission: failover must
preserve exactly-once semantics while saturated (the scripted
linearizability version of the same claim lives in
tests/test_overload.py and the explore matrix).

Every arm is assembled by :func:`~repro.workload.scenarios.build_counter`
from the approach table: ``HybComb-lease`` is ``HybComb`` with the
lease/takeover keywords on, and ``mp-server-ft`` is the table's
primary/backup pair with a 2,000-cycle request timeout.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

from repro.analysis.series import FigureData
from repro.experiments.parallel import point, run_sweep
from repro.faults import CrashThread, FaultPlan
from repro.obs import SLO
from repro.workload.driver import WorkloadSpec
from repro.workload.metrics import RunResult
from repro.workload.openloop import (
    AdmissionSpec,
    ArrivalSpec,
    OpenLoopSpec,
    run_openloop_workload,
)
from repro.workload.scenarios import build_counter, run_counter_benchmark

__all__ = ["APPROACHES", "measure_capacity", "overload_slos",
           "run_overload", "run_overload_point"]

#: approaches swept (HybComb twice: lease/takeover off and on)
APPROACHES = ("mp-server", "shm-server", "CC-Synch", "HybComb",
              "HybComb-lease")

#: client threads per run (fits every topology, two-server FT included)
NUM_CLIENTS = 8

#: admission-queue bound for the bounded policies, per client
QUEUE_CAPACITY = 16

#: per-dispatch deadline for the retry policy (cycles)
DISPATCH_TIMEOUT = 2_000

#: sojourn SLO target used for time-in-SLO accounting (cycles)
SLO_CYCLES = 20_000

#: offered-load multipliers relative to measured capacity
QUICK_MULTIPLIERS = (0.5, 1.0, 1.2, 1.5, 2.0)
FULL_MULTIPLIERS = (0.5, 0.75, 1.0, 1.1, 1.2, 1.35, 1.5, 1.75, 2.0)


def overload_slos() -> Tuple[SLO, ...]:
    """The SLOs ``python -m repro run overload --obs report`` monitors live.

    They restate the experiment's own acceptance story as objectives:
    the sojourn SLO the time-in-SLO metric uses, a goodput floor well
    under every approach's capacity, and the bounded-admission depth
    ceiling (``QUEUE_CAPACITY`` per client).  Past-capacity unbounded
    points are *designed* to blow through the latency and depth
    objectives -- the induced breach exercises the breach -> flight
    recorder -> incident bundle path on every report run.
    """
    return (
        SLO("sojourn-p99", kind="latency", target=float(SLO_CYCLES),
            quantile=0.99),
        SLO("goodput-floor", kind="goodput", target=1.0),
        SLO("qdepth-bound", kind="qdepth",
            target=float(QUEUE_CAPACITY * NUM_CLIENTS),
            metric="admit.qdepth"),
    )


#: overload labels that are another approach with constructor keywords
_VARIANTS: Dict[str, Tuple[str, Dict[str, int]]] = {
    "HybComb-lease": ("HybComb", {"lease_cycles": 3_000,
                                  "request_timeout": 6_000}),
    "mp-server-ft": ("mp-server-ft", {"request_timeout": 2_000}),
}


def measure_capacity(approach: str, *, quick: bool = True) -> float:
    """Closed-loop capacity (Mops/s) of ``approach`` at NUM_CLIENTS."""
    base = _VARIANTS.get(approach, (approach, {}))[0]
    spec = WorkloadSpec.quick() if quick else WorkloadSpec.full()
    r = run_counter_benchmark(base, NUM_CLIENTS, spec=spec)
    return r.throughput_mops


def _admission(policy: str) -> AdmissionSpec:
    if policy == "unbounded":
        return AdmissionSpec(policy="unbounded", slo_cycles=SLO_CYCLES)
    if policy == "drop":
        return AdmissionSpec(policy="drop", capacity=QUEUE_CAPACITY,
                             slo_cycles=SLO_CYCLES)
    if policy == "retry":
        return AdmissionSpec(policy="retry", capacity=QUEUE_CAPACITY,
                             dispatch_timeout_cycles=DISPATCH_TIMEOUT,
                             breaker_threshold=4, slo_cycles=SLO_CYCLES)
    raise ValueError(f"unknown policy {policy!r}")


def run_overload_point(
    approach: str,
    capacity_mops: float,
    multiplier: float,
    policy: str,
    *,
    quick: bool = True,
    crash_primary: bool = False,
    seed: int = 42,
) -> RunResult:
    """One (approach, offered-load multiplier, admission policy) run.

    Offered load is ``multiplier * capacity_mops`` spread over
    NUM_CLIENTS Poisson sources.  ``crash_primary`` additionally kills
    thread 0 a third into the measurement window (mp-server-ft only:
    the backup takes over and dedup keeps the run exactly-once).
    """
    warmup, measure = (20_000, 120_000) if quick else (60_000, 360_000)
    crash = (CrashThread(tid=0, at_cycle=warmup + measure // 3),)
    plan = FaultPlan(seed=seed, faults=crash) if crash_primary else None
    base, kw = _VARIANTS.get(approach, (approach, {}))
    run = build_counter(base, NUM_CLIENTS, fault_plan=plan, **kw)

    offered_per_cycle = multiplier * capacity_mops / run.machine.cfg.clock_mhz
    gap = len(run.ctxs) / offered_per_cycle
    spec = OpenLoopSpec(
        arrivals=ArrivalSpec(process="poisson", mean_gap_cycles=gap),
        admission=_admission(policy),
        warmup_cycles=warmup,
        measure_cycles=measure,
        seed=seed,
    )

    label = f"{approach}/{policy}" + ("+crash" if crash_primary else "")
    result = run_openloop_workload(run.machine, run.ctxs, run.prim,
                                   run.counter._op_inc, spec, name=label)
    result.extra["ol.multiplier"] = multiplier
    result.extra["ol.capacity_mops"] = capacity_mops
    # ground truth for exactly-once: the counter's final value must equal
    # the number of completed increments over the *whole* run
    result.extra["ol.counter_value"] = float(run.counter.value())
    return result


def run_overload(quick: bool = True, jobs: Optional[int] = None,
                 multipliers: Optional[Sequence[float]] = None) -> FigureData:
    """The load-latency hockey stick, 0.5x..2x capacity per approach."""
    mults = tuple(multipliers if multipliers is not None
                  else QUICK_MULTIPLIERS if quick else FULL_MULTIPLIERS)

    # phase 1: closed-loop capacity per approach (itself a sweep)
    cap_pts = [point(a, 0, measure_capacity, a, quick=quick)
               for a in APPROACHES]
    caps: Dict[str, float] = {
        p.label: r for p, r in
        zip(cap_pts, run_sweep(cap_pts, jobs=jobs, name="overload-capacity"))
    }

    # phase 2: open-loop offered-load sweep, unbounded vs bounded
    fig = FigureData(
        "overload",
        "open-loop overload: p99 sojourn vs offered load (hockey stick)",
        "offered load (x capacity)", "p99 sojourn latency (cycles)",
    )
    pts = []
    for a in APPROACHES:
        for mult in mults:
            pts.append(point(f"{a} unbounded", mult, run_overload_point,
                             a, caps[a], mult, "unbounded", quick=quick))
            pts.append(point(f"{a} drop", mult, run_overload_point,
                             a, caps[a], mult, "drop", quick=quick))
    # timed-dispatch retry/backoff contrast on the server approaches
    # (combiners commit with one wait-free SWAP/FAA -- nothing to time)
    for mult in mults:
        pts.append(point("mp-server retry", mult, run_overload_point,
                         "mp-server", caps["mp-server"], mult, "retry",
                         quick=quick))
    # phase 3: exactly-once failover while saturated (1.5x, bounded)
    pts.append(point("mp-server-ft drop+crash", 1.5, run_overload_point,
                     "mp-server-ft", caps["mp-server"], 1.5, "drop",
                     quick=quick, crash_primary=True))

    for p, r in zip(pts, run_sweep(pts, jobs=jobs, name="overload")):
        fig.add_point(p.label, p.x, r)

    for a in APPROACHES:
        fig.note(f"capacity[{a}] = {caps[a]:.1f} Mops/s "
                 f"(closed-loop, T={NUM_CLIENTS})")
    fig.note(f"bounded policies: queue capacity {QUEUE_CAPACITY}/client, "
             f"dispatch timeout {DISPATCH_TIMEOUT} cyc, SLO {SLO_CYCLES} cyc")
    fig.note("crash point: primary killed a third into the window at 1.5x "
             "offered load; dedup + failover keep completions exactly-once")
    return fig
