"""UDN word conservation: no buffer word is created, lost or stranded.

A send reserves space in the destination core's hardware buffer before
its message exists, the message then travels as one delivery entry, and
a receive frees the space as it pops the words.  So at every instant
between events, for every core,

    udn_buffer_words - free_words
        == words queued in the core's demux queues
         + words of the delivery entries bound for the core

The law is checked at sample-hook points (between events, at cycle
boundaries) and at the end of each run, on the mp-server closed loop,
an open-loop overload into tiny buffers with timed sends (withdrawn
reservations), a server crash with failover, an exploration policy that
stretches message transit, and the contended mesh, where each packet
crosses the mesh as a process carrying its entry.
Pending entries are tracked by substituting an instrumented subclass of
the fabric's delivery entry.
"""

import pytest

import repro.udn.udn as udn_mod
from repro.core import MPServer, OpTable
from repro.explore import RandomWalkPolicy
from repro.faults import CrashThread, FaultInjector, FaultPlan
from repro.machine import Machine, tile_gx
from repro.machine.config import mesh_profile
from repro.objects import LockedCounter
from repro.workload.driver import WorkloadSpec, run_workload
from repro.workload.openloop import (AdmissionSpec, ArrivalSpec, OpenLoopSpec,
                                     run_openloop_workload)
from repro.workload.scenarios import build_approach

#: an odd sample period, so checks land at varied protocol phases
SAMPLE_EVERY = 97


@pytest.fixture
def in_flight(monkeypatch):
    """The set of delivery entries created but not yet delivered."""
    live = set()
    base = udn_mod._Delivery

    class Tracked(base):
        __slots__ = ()

        def __init__(self, *args):
            base.__init__(self, *args)
            live.add(self)

        def _send(self, val):
            live.discard(self)
            return base._send(self, val)

    monkeypatch.setattr(udn_mod, "_Delivery", Tracked)
    return live


class Law:
    """Checks the conservation law on one machine's fabric."""

    def __init__(self, machine, in_flight):
        self.udn = machine.udn
        self.in_flight = in_flight
        self.checks = 0
        #: checks that saw a reserved word (the law was not just 0 == 0)
        self.busy_checks = 0

    def check(self, _cycle=None):
        udn = self.udn
        cap = udn.cfg.udn_buffer_words
        bound = [0] * len(udn.cores)
        for entry in self.in_flight:
            bound[entry.dst_core] += entry.n_words
        queued_at = [0] * len(udn.cores)
        for (cid, _demux), q in udn._queues.items():
            queued_at[cid] += len(q.words)
        reserved_any = False
        for cid, buf in enumerate(udn._buffers):
            reserved = cap - buf.free_words
            queued = queued_at[cid]
            assert reserved == queued + bound[cid], (
                f"core {cid}: {reserved} words reserved, {queued} queued "
                f"+ {bound[cid]} in flight")
            reserved_any = reserved_any or reserved > 0
        self.checks += 1
        self.busy_checks += reserved_any

    def sample(self, machine):
        machine.sim.set_sample_hook(SAMPLE_EVERY, self.check)


def _closed_loop(machine, clients, measure_cycles, seed=1):
    optable = OpTable()
    prim, tids = build_approach("mp-server", machine, optable, clients)
    counter = LockedCounter(prim)
    opcode = optable.register(counter._inc_body, "counter_inc")
    prim.start()
    ctxs = [machine.thread(t) for t in tids]

    def make_op(ctx):
        def op(k):
            yield from prim.apply_op(ctx, opcode)
        return op

    spec = WorkloadSpec(warmup_cycles=2_000, measure_cycles=measure_cycles,
                        seed=seed)
    return run_workload(machine, ctxs, make_op, spec, name="conservation",
                        prim=prim)


def test_mp_server_closed_loop_conserves_words(in_flight):
    m = Machine(tile_gx())
    law = Law(m, in_flight)
    law.sample(m)
    result = _closed_loop(m, clients=12, measure_cycles=20_000)
    law.check()
    assert result.ops > 0
    assert law.checks > 100 and law.busy_checks > 100


def test_openloop_overload_with_withdrawn_reservations_conserves_words(
        in_flight):
    """Six-word buffers hold two 3-word requests, so timed request sends
    back up, expire and withdraw their reservations."""
    m = Machine(tile_gx(udn_buffer_words=6))
    optable = OpTable()
    prim, tids = build_approach("mp-server", m, optable, 8)
    counter = LockedCounter(prim)
    opcode = optable.register(counter._inc_body, "counter_inc")
    prim.start()
    ctxs = [m.thread(t) for t in tids]
    law = Law(m, in_flight)
    law.sample(m)
    gap = len(ctxs) * m.cfg.clock_mhz / 150.0  # 1.5x server capacity
    spec = OpenLoopSpec(
        arrivals=ArrivalSpec(process="poisson", mean_gap_cycles=gap),
        admission=AdmissionSpec(policy="retry", capacity=16,
                                dispatch_timeout_cycles=40,
                                breaker_threshold=4, slo_cycles=20_000),
        warmup_cycles=2_000, measure_cycles=30_000, seed=3)
    result = run_openloop_workload(m, ctxs, prim, opcode, spec,
                                   name="conservation")
    law.check()
    assert result.dispatch_timeouts > 0, "no reservation was withdrawn"
    assert m.udn.backpressure_cycles > 0
    assert law.checks > 100 and law.busy_checks > 100


def test_server_crash_and_failover_conserve_words(in_flight):
    """The crashed primary's queue keeps the requests it never served;
    they stay counted as queued words, never lost."""
    m = Machine(tile_gx())
    prim = MPServer(m, OpTable(), server_tid=0, server_core=0,
                    backup_tid=1, backup_core=1, request_timeout=2_000)
    counter = LockedCounter(prim)
    prim.start()
    ctxs = [m.thread(t) for t in range(2, 8)]

    def client(ctx):
        for _ in range(15):
            yield from counter.increment(ctx)
            yield from ctx.work(50)

    for ctx in ctxs:
        m.spawn(ctx, client(ctx), name=f"client-{ctx.tid}")
    FaultInjector(m, FaultPlan(seed=3, faults=(
        CrashThread(tid=0, at_cycle=800),))).install()
    law = Law(m, in_flight)
    law.sample(m)
    m.run()
    law.check()
    assert prim.recovery_stats["failovers"] >= 1
    assert counter.value() == 6 * 15
    assert law.checks > 10 and law.busy_checks > 0


def test_stretched_transit_under_exploration_conserves_words(in_flight):
    m = Machine(tile_gx())
    m.sim.policy = RandomWalkPolicy(seed=3, p_lane=0.25, p_udn=0.5,
                                    p_preempt=0)
    law = Law(m, in_flight)
    law.sample(m)
    result = _closed_loop(m, clients=8, measure_cycles=20_000)
    law.check()
    assert result.ops > 0
    assert any(k == "U" and v for k, v in m.sim.policy.trace)
    assert law.checks > 100 and law.busy_checks > 100


def test_contended_mesh_conserves_words_and_drains(in_flight):
    """Packets cross the hop-by-hop mesh as processes; once every client
    has finished and the run drains, no word is reserved or in flight."""
    m = Machine(mesh_profile(4, 4, contended_noc=True))
    prim = MPServer(m, OpTable(), server_tid=0, server_core=0)
    counter = LockedCounter(prim)
    prim.start()
    ctxs = [m.thread(t) for t in range(1, 16)]

    def client(ctx):
        for _ in range(10):
            yield from counter.increment(ctx)

    for ctx in ctxs:
        m.spawn(ctx, client(ctx))
    law = Law(m, in_flight)
    law.sample(m)
    m.run()
    law.check()
    assert counter.value() == 15 * 10
    assert law.checks > 10 and law.busy_checks > 10
    assert not in_flight
    assert m.udn.buffer_occupancy_words() == 0
