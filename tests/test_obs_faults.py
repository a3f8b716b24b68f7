"""Observability counters and causal tracing under fault injection.

A crashed or preempted core must not corrupt the books: completed ops
stay cycle-exactly attributed, a dead thread leaves at most its one
in-flight op unmatched, the service breakdown stays non-negative and
bounded by the window, and the event-derived stall registers keep
matching the cores' own hardware registers exactly.
"""

import repro.obs as obs
from repro.analysis.critpath import analyze_collector
from repro.faults import CrashThread, FaultPlan, PreemptThread
from repro.workload.driver import WorkloadSpec
from repro.workload.scenarios import run_counter_benchmark, run_fault_recovery_benchmark
from tests.helpers import assert_event_stalls_equal_hw, attach_oracles

SPEC = WorkloadSpec(warmup_cycles=5_000, measure_cycles=20_000)

#: crash one *client* mid-window (tid 0 is the mp-server's server thread)
CLIENT_CRASH = FaultPlan(seed=1, faults=(
    CrashThread(tid=3, at_cycle=SPEC.warmup_cycles + 5_000),
))

PREEMPT = FaultPlan(seed=2, faults=(
    PreemptThread(tid=2, start_cycle=SPEC.warmup_cycles + 2_000,
                  run_cycles=500, preempt_cycles=1_500,
                  until_cycle=SPEC.warmup_cycles + 15_000),
))


def _run(approach, plan, threads=5, spec=SPEC, recovery=False):
    with obs.observed(trace=True) as session:
        if recovery:
            r = run_fault_recovery_benchmark(threads, spec=spec,
                                             fault_plan=plan)
        else:
            r = run_counter_benchmark(approach, threads, spec=spec,
                                      fault_plan=plan)
    (ob,) = session.machines
    return r, ob


def test_crashed_client_leaves_no_dangling_blame():
    r, ob = _run("mp-server", CLIENT_CRASH)
    rep = analyze_collector(ob.trace)
    # completed ops are still cycle-exact...
    assert rep.ops
    for o in rep.ops:
        assert sum(o.blame.values()) == o.latency
    # ...and match what the driver measured
    assert sorted(o.latency for o in rep.measured_ops) == sorted(r.latency_samples)
    # the dead client's op plus at most one in-flight op per surviving
    # thread: nothing leaks beyond that
    assert 1 <= rep.incomplete_ops <= 5


def test_preempted_client_books_stay_exact():
    r, ob = _run("mp-server", PREEMPT)
    rep = analyze_collector(ob.trace)
    assert rep.ops
    for o in rep.ops:
        assert sum(o.blame.values()) == o.latency
    assert sorted(o.latency for o in rep.measured_ops) == sorted(r.latency_samples)
    # preemption stretches ops but never loses them mid-run
    assert rep.incomplete_ops <= 5


def test_service_breakdown_sane_under_crash():
    r, ob = _run("mp-server", CLIENT_CRASH)
    # counter-derived per-op service numbers survive the crash intact
    assert r.extra["obs.service_cycles_per_op"] >= 0
    assert 0 <= r.extra["obs.service_stall_per_op"] <= r.extra[
        "obs.service_cycles_per_op"]
    # the server core cannot have served more than the whole window
    assert (r.extra["obs.service_cycles_per_op"] * r.ops
            <= SPEC.measure_cycles)


def test_server_crash_and_failover_keeps_counters_consistent():
    """Crash the *primary server* mid-window (the fault-tolerant
    scenario): unmatched service spans must not corrupt the analysis."""
    plan = FaultPlan(seed=1, faults=(
        CrashThread(tid=0, at_cycle=SPEC.warmup_cycles + 6_000),
    ))
    r, ob = _run(None, plan, threads=4, recovery=True)
    assert r.ops > 0
    rep = analyze_collector(ob.trace)
    for o in rep.ops:
        assert sum(o.blame.values()) == o.latency
    assert all(v >= 0 for o in rep.ops for v in o.blame.values())


def test_event_stall_registers_match_hw_under_faults(monkeypatch):
    """The double-count guard holds with crashed and preempted cores:
    stall registers rebuilt from bus events (the oracle) equal the
    hardware registers."""
    refs = attach_oracles(monkeypatch)
    for plan in (CLIENT_CRASH, PREEMPT):
        with obs.observed():
            run_counter_benchmark("CC-Synch", 5, spec=SPEC, fault_plan=plan)
    assert len(refs) == 2
    for ref in refs:
        assert_event_stalls_equal_hw(ref)
