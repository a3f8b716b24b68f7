"""Tests for the overload experiment (hockey stick + saturated failover).

One closed-loop capacity measurement is shared module-wide; each test
then drives a few open-loop points against it.  The assertions encode
the PR's acceptance criteria directly: unbounded admission diverges
past the knee, bounded admission keeps goodput near capacity at 2x
offered load, runs are bit-reproducible under a fixed seed, and a
combiner crash at 1.5x fails over without losing exactly-once.
"""

import pytest

from repro.experiments.overload import (
    APPROACHES,
    NUM_CLIENTS,
    QUEUE_CAPACITY,
    measure_capacity,
    run_overload_point,
)


@pytest.fixture(scope="module")
def mp_capacity():
    return measure_capacity("mp-server", quick=True)


def test_measured_capacity_is_sane(mp_capacity):
    # 8 clients on the message-passing server run at tens of Mops/s
    assert 20.0 < mp_capacity < 500.0


def test_capacity_lease_variant_measures_base_algorithm():
    assert "HybComb-lease" in APPROACHES
    a = measure_capacity("HybComb", quick=True)
    b = measure_capacity("HybComb-lease", quick=True)
    assert a == pytest.approx(b)  # same closed-loop baseline


def test_unbounded_diverges_bounded_degrades_gracefully(mp_capacity):
    ru = run_overload_point("mp-server", mp_capacity, 1.5, "unbounded")
    rd = run_overload_point("mp-server", mp_capacity, 1.5, "drop")

    # unbounded past the knee: depth and p99.9 grow without bound
    # (final sampled depth is still the maximum => still climbing)
    assert ru.extra["ol.qdepth_final"] >= 0.9 * ru.extra["ol.qdepth_max"]
    assert ru.extra["ol.qdepth_max"] > 20 * rd.extra["ol.qdepth_max"]
    assert ru.p999_latency_cycles > 3 * rd.p999_latency_cycles
    assert ru.time_in_slo < rd.time_in_slo == 1.0

    # bounded: the queue is pinned at its configured bound
    assert rd.extra["ol.qdepth_max"] <= NUM_CLIENTS * QUEUE_CAPACITY + 32
    assert rd.shed_ops > 0
    assert ru.shed_ops == 0

    # provenance extras the figure/CSV layer relies on
    for r, mult in ((ru, 1.5), (rd, 1.5)):
        assert r.extra["ol.multiplier"] == mult
        assert r.extra["ol.capacity_mops"] == mp_capacity
        assert r.extra["ol.counter_value"] >= r.ops


def test_bounded_goodput_within_20pct_of_capacity_at_2x(mp_capacity):
    r = run_overload_point("mp-server", mp_capacity, 2.0, "drop")
    assert r.offered_mops == pytest.approx(2.0 * mp_capacity, rel=0.15)
    assert r.goodput_mops >= 0.8 * mp_capacity
    assert r.time_in_slo == 1.0


def test_overload_point_reproducible_under_fixed_seed(mp_capacity):
    a = run_overload_point("mp-server", mp_capacity, 1.5, "drop", seed=9)
    b = run_overload_point("mp-server", mp_capacity, 1.5, "drop", seed=9)
    assert a.ops == b.ops
    assert a.latency_samples == b.latency_samples
    assert a.extra == b.extra
    assert a.queue_depth_series == b.queue_depth_series
    c = run_overload_point("mp-server", mp_capacity, 1.5, "drop", seed=10)
    assert c.latency_samples != a.latency_samples


def test_saturated_failover_keeps_exactly_once(mp_capacity):
    """Crash the FT primary a third into a 1.5x bounded-drop window: the
    backup must take over, dedup must suppress the replayed requests,
    and the run must keep serving afterwards."""
    r = run_overload_point("mp-server-ft", mp_capacity, 1.5, "drop",
                           crash_primary=True)
    assert r.failovers >= 1
    assert r.time_to_recovery_cycles is not None
    assert r.ops > 0 and r.goodput_mops > 0
    # exactly-once ground truth: the counter can exceed windowed ops
    # (warmup + in-flight) but never fall short of them
    assert r.extra["ol.counter_value"] >= r.ops
    # retried-after-crash requests were deduplicated, not re-executed
    assert r.duplicates_suppressed >= 0
    assert r.ops_retried >= r.duplicates_suppressed


def test_saturated_failover_recovery_visible_in_trace(mp_capacity):
    """The event bus must narrate the saturated failover end to end:
    admission events on both sides of the crash, fault.retry/failover
    from the clients, and a causal op stream the blame tools can use."""
    import repro.obs as obs
    from repro.core import OpTable
    from repro.experiments.overload import _admission
    from repro.obs.bus import KINDS
    from repro.faults import CrashThread, FaultInjector, FaultPlan
    from repro.objects import LockedCounter
    from repro.workload.openloop import (ArrivalSpec, OpenLoopSpec,
                                         run_openloop_workload)
    from repro.workload.scenarios import build_approach

    kinds = set()
    with obs.observed(trace=True) as session:
        from repro.machine import Machine, tile_gx
        machine = Machine(tile_gx())
        (ob,) = session.machines
        ob.bus.subscribe_kinds(sorted(KINDS), lambda t, k, f: kinds.add(k))

        prim, tids = build_approach("mp-server-ft", machine, OpTable(),
                                    NUM_CLIENTS, request_timeout=2_000)
        counter = LockedCounter(prim)
        prim.start()
        ctxs = [machine.thread(t) for t in tids]
        gap = len(ctxs) / (1.5 * mp_capacity / machine.cfg.clock_mhz)
        spec = OpenLoopSpec(
            arrivals=ArrivalSpec(process="poisson", mean_gap_cycles=gap),
            admission=_admission("drop"),
            warmup_cycles=20_000, measure_cycles=120_000)
        crash_at = spec.warmup_cycles + spec.measure_cycles // 3
        plan = FaultPlan(seed=42,
                         faults=(CrashThread(tid=0, at_cycle=crash_at),))
        FaultInjector(machine, plan).install()
        r = run_openloop_workload(machine, ctxs, prim, counter._op_inc, spec)

    assert r.failovers >= 1
    # admission + fault + recovery narration all reached the bus
    for kind in ("admit.enqueue", "admit.shed", "fault.retry",
                 "fault.failover", "op.begin", "op.end"):
        assert kind in kinds, f"missing {kind} in the overload trace"
    # and the event log kept an op stream for blame attribution
    causal_kinds = {k for _t, k, _f in ob.trace.events}
    assert {"op.begin", "op.end", "server.done"} <= causal_kinds


def test_unknown_approach_and_policy_rejected(mp_capacity):
    with pytest.raises(ValueError, match="unknown approach"):
        run_overload_point("bogus", 100.0, 1.0, "drop")
    with pytest.raises(ValueError, match="unknown policy"):
        run_overload_point("mp-server", 100.0, 1.0, "bogus")
