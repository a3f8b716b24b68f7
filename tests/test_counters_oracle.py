"""Differential test: the perf counter file against its bus-fed oracle.

The hardware models write :class:`repro.obs.PerfCounters` directly.
``tests/counters_oracle.py`` keeps the implementation it replaced, which
rebuilt every register from bus events.  Subscribed beside the live
file on the same machine, the oracle must agree with it *exactly* --
``snapshot()``, ``delta()`` and the long-format CSV -- across the four
approaches, both atomics executors, the contended mesh, an overloaded
open loop with send timeouts, every fault-recovery path and a
late-enabled machine.  The oracle's event-derived stall registers also
keep the double-count guard meaningful: they must equal the cores' own
hardware stall registers, which the live file reads back.
"""

import hashlib

import pytest

import repro.obs as obs
from repro.core import HybComb, MPServer, OpTable
from repro.faults import CrashThread, FaultInjector, FaultPlan, PreemptThread
from repro.machine import Machine, mesh_profile, tile_gx, x86_like
from repro.objects import LockedCounter
from repro.obs.bus import KINDS
from repro.obs.counters import counters_csv
from repro.workload.driver import WorkloadSpec
from repro.workload.openloop import (
    AdmissionSpec,
    ArrivalSpec,
    OpenLoopSpec,
    run_openloop_workload,
)
from repro.workload.scenarios import run_counter_benchmark, run_fault_recovery_benchmark
from tests import counters_oracle as oracle
from tests.helpers import assert_event_stalls_equal_hw, attach_oracles, oracle_counters

SPEC = WorkloadSpec(warmup_cycles=5_000, measure_cycles=20_000)

#: cycle of the mid-run snapshot pair that delta() is checked against
MID = 12_000

#: sha256 of ``metrics_csv()`` for one quick mp-server point: the CSV
#: recorded while the counters were still fed from the bus, less its two
#: ``requests_served`` rows (the register is gone; ``ops_serviced``
#: counts the same service spans)
MP_QUICK_CSV_SHA256 = (
    "7033ab13ac564b874526cc751f20aead0eea6a384bb8f2f9343abb94df658cba")

CLIENT_CRASH = FaultPlan(seed=1, faults=(
    CrashThread(tid=3, at_cycle=SPEC.warmup_cycles + 5_000),
))

PREEMPT = FaultPlan(seed=2, faults=(
    PreemptThread(tid=2, start_cycle=SPEC.warmup_cycles + 2_000,
                  run_cycles=500, preempt_cycles=1_500,
                  until_cycle=SPEC.warmup_cycles + 15_000),
))


class _Pair:
    """One observed machine with the oracle subscribed beside its file."""

    def __init__(self, ob):
        self.ob = ob
        self.ref = oracle_counters(ob)
        self.mid = None
        # the flight recorder dumps the live file on these kinds; the
        # dump must already count the triggering event
        self.triggers = self.trigger_mismatches = 0
        ob.bus.subscribe_kinds(("proc.kill", "udn.timeout"), self._on_trigger)

    def _on_trigger(self, t, kind, f) -> None:
        self.triggers += 1
        if self.ob.counters.snapshot() != self.ref.snapshot():
            self.trigger_mismatches += 1

    def snapshot_later(self, cycle: int) -> None:
        def take():
            self.mid = (self.ob.counters.snapshot(), self.ref.snapshot())
        self.ob.machine.sim.call_at(cycle, take)

    def check(self) -> None:
        live, ref = self.ob.counters, self.ref
        snap = live.snapshot()
        assert snap == ref.snapshot()
        assert self.trigger_mismatches == 0
        assert snap["core"] and snap["global"], "nothing was counted"
        assert counters_csv(snap) == oracle.counters_csv(ref.snapshot())
        live_mid, ref_mid = self.mid if self.mid is not None else ({}, {})
        delta = live.delta(live_mid)
        assert delta == ref.delta(ref_mid)
        assert counters_csv(delta) == oracle.counters_csv(ref.delta(ref_mid))
        # the live file subscribes to nothing: the bus's subscribers are
        # the oracle (to every kind), this pair and the flight recorder
        subs = self.ob.bus._kind_subs
        assert all(ref.on_event in subs[kind] for kind in KINDS)
        ours = {ref.on_event, self._on_trigger}
        if self.ob.flight is not None:
            ours.add(self.ob.flight.on_trigger)
        assert {fn for fns in subs.values() for fn in fns} == ours
        assert_event_stalls_equal_hw(ref)


def _paired_mid_run(ob) -> _Pair:
    pair = _Pair(ob)
    pair.snapshot_later(MID)
    return pair


@pytest.fixture
def paired(monkeypatch):
    """Every machine observed from here on gets an oracle beside it."""
    return attach_oracles(monkeypatch, _paired_mid_run)


def _check_session(session, pairs):
    assert len(pairs) == len(session.machines) >= 1
    for pair in pairs:
        pair.check()
    agg = {}
    for pair in pairs:
        oracle.merge_counters(agg, pair.ref.snapshot())
    assert session.metrics_csv() == oracle.counters_csv(agg)


@pytest.mark.parametrize("approach", ["mp-server", "shm-server", "CC-Synch", "HybComb"])
def test_closed_loop_approaches(paired, approach):
    with obs.observed() as session:
        run_counter_benchmark(approach, 6, spec=SPEC)
    _check_session(session, paired)


def test_fixed_combiner(paired):
    with obs.observed() as session:
        run_counter_benchmark("CC-Synch", 6, spec=SPEC, fixed_combiner=True)
    _check_session(session, paired)


@pytest.mark.parametrize("approach", ["CC-Synch", "shm-server"])
def test_cache_atomics(paired, approach):
    with obs.observed() as session:
        run_counter_benchmark(approach, 6, spec=SPEC, cfg=x86_like())
    _check_session(session, paired)


def test_contended_mesh(paired):
    with obs.observed() as session:
        run_counter_benchmark("mp-server", 6, spec=SPEC,
                              cfg=mesh_profile(4, 4, contended_noc=True))
    (pair,) = paired
    assert pair.ref.snapshot()["link"]
    _check_session(session, paired)


def test_overload_send_timeouts(paired):
    """Open loop at 1.5x capacity into 6-word server buffers: timed
    request sends expire on backpressure."""
    with obs.observed(flight=True) as session:
        m = Machine(tile_gx(udn_buffer_words=6))
        prim = MPServer(m, OpTable(), server_tid=0)
        counter = LockedCounter(prim)
        prim.start()
        ctxs = [m.thread(t) for t in range(1, 9)]
        spec = OpenLoopSpec(
            arrivals=ArrivalSpec(process="poisson", mean_gap_cycles=64.0),
            admission=AdmissionSpec(policy="retry", capacity=16,
                                    dispatch_timeout_cycles=40,
                                    breaker_threshold=4),
            warmup_cycles=SPEC.warmup_cycles,
            measure_cycles=SPEC.measure_cycles, seed=42)
        run_openloop_workload(m, ctxs, prim, counter._op_inc, spec, name="overload")
    (pair,) = paired
    _check_session(session, paired)
    snap = pair.ob.counters.snapshot()
    assert snap["global"]["udn_timeouts"] > 0
    # the trap: the fabric's per-sender total also holds the cycles of
    # timed-out sends; the backpressure_cycles register does not
    bp = sum(regs.get("backpressure_cycles", 0) for regs in snap["core"].values())
    assert 0 < bp < sum(m.udn.backpressure_by_core)
    assert pair.triggers == snap["global"]["udn_timeouts"]


@pytest.mark.parametrize("approach,plan", [
    ("mp-server", CLIENT_CRASH),
    ("CC-Synch", CLIENT_CRASH),
    ("mp-server", PREEMPT),
    ("CC-Synch", PREEMPT),
])
def test_fault_plans(paired, approach, plan):
    with obs.observed(flight=True) as session:
        run_counter_benchmark(approach, 5, spec=SPEC, fault_plan=plan)
    _check_session(session, paired)
    if plan is CLIENT_CRASH:
        (pair,) = paired
        assert pair.triggers == 1
        # the crash's incident bundle counts the kill that triggered it
        (doc,) = [d for d in session.incidents() if d["reason"] == "proc.kill"]
        assert doc["counters"]["global"]["proc_kills"] == 1


def test_server_crash_failover(paired):
    plan = FaultPlan(seed=1, faults=(
        CrashThread(tid=0, at_cycle=SPEC.warmup_cycles + 6_000),
    ))
    with obs.observed() as session:
        r = run_fault_recovery_benchmark(4, spec=SPEC, fault_plan=plan)
    assert r.ops > 0
    (pair,) = paired
    assert pair.ref.snapshot()["global"].get("failovers", 0) > 0
    _check_session(session, paired)


def test_hybcomb_takeover(paired):
    with obs.observed() as session:
        m = Machine()
        prim = HybComb(m, OpTable(), max_ops=200, lease_cycles=1_500,
                       request_timeout=1_500)
        counter = LockedCounter(prim)
        prim.start()
        ctxs = [m.thread(t) for t in range(4)]

        def client(ctx, n):
            for _ in range(n):
                yield from counter.increment(ctx)
                yield from ctx.work(50)

        for c in ctxs:
            m.spawn(c, client(c, 150), name=f"client-{c.tid}")
        FaultInjector(m, FaultPlan(seed=1, faults=(
            CrashThread(tid=2, at_cycle=6_000),))).install()
        m.run()
    assert prim.takeovers >= 1
    (pair,) = paired
    assert pair.ref.snapshot()["global"]["takeovers"] == prim.takeovers
    _check_session(session, paired)


def test_late_enable():
    m = Machine(tile_gx())
    prim = MPServer(m, OpTable(), server_tid=0)
    counter = LockedCounter(prim)
    prim.start()

    def client(ctx, n):
        for _ in range(n):
            yield from counter.increment(ctx)

    for t in range(1, 7):
        ctx = m.thread(t)
        m.spawn(ctx, client(ctx, 300))
    m.run(until=8_000)   # unobserved warm-up, messages still in flight
    pair = _Pair(m.enable_observability())
    pair.snapshot_later(m.now + 4_000)
    m.run()
    pair.check()


def test_metrics_csv_pinned():
    with obs.observed() as session:
        run_counter_benchmark("mp-server", 8, spec=WorkloadSpec.quick())
    csv = session.metrics_csv()
    assert hashlib.sha256(csv.encode()).hexdigest() == MP_QUICK_CSV_SHA256
