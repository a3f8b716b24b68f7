"""Microbenchmarks of the simulator substrate itself.

These are classic pytest-benchmark timings (wall time of the simulator,
not simulated cycles): they track the engine's event throughput and the
cost of the memory/UDN primitives so a performance regression in the
substrate is caught before it turns every figure run to molasses.
"""

import cProfile
import gc
import os
import pstats
import tracemalloc

import repro.obs
from repro.machine import Machine, tile_gx, x86_like
from repro.sim import Simulator


def test_engine_event_throughput(benchmark):
    """Pure engine: two processes ping-ponging delays."""

    def run():
        sim = Simulator()

        def proc():
            for _ in range(20_000):
                yield 1

        sim.spawn(proc())
        sim.spawn(proc())
        sim.run()
        return sim.events_processed

    events = benchmark(run)
    assert events >= 40_000


def test_cache_hit_loop(benchmark):
    """Hot loop of cache-hit loads/stores on one core."""

    def run():
        m = Machine(tile_gx())
        a = m.mem.alloc(1)
        ctx = m.thread(0)

        def prog():
            for _ in range(5_000):
                v = yield from ctx.load(a)
                yield from ctx.store(a, v + 1)

        m.spawn(ctx, prog())
        m.run()
        return m.mem.peek(a)

    assert benchmark(run) == 5_000


def test_coherence_miss_pingpong(benchmark):
    """Two cores alternately store to one line while a third spins on it:
    every store misses (a background ownership transaction invalidating
    the other two copies) and every invalidation wakes the spinner."""
    rounds = 500

    def run():
        m = Machine(tile_gx())
        a = m.mem.alloc(1, isolated=True)

        def writer(ctx, parity):
            for _ in range(rounds):
                v = yield from ctx.spin_until(a, lambda v: v % 2 == parity)
                yield from ctx.store(a, v + 1)

        def spinner(ctx):
            return (yield from ctx.spin_until(a, lambda v: v == 2 * rounds))

        for tid, parity in ((0, 0), (1, 1)):
            ctx = m.thread(tid, core_id=7 * tid)
            m.spawn(ctx, writer(ctx, parity))
        ctx = m.thread(2, core_id=35)
        p = m.spawn(ctx, spinner(ctx))
        m.run()
        return p.result, m.mem.peek(a), m.sim.events_processed

    # events pinned before the mem fast paths: a host-only speed-up must
    # not add or drop a single simulator event
    assert benchmark(run) == (2 * rounds, 2 * rounds, 12_998)


def _round_trips(machine, n=2_000):
    """``n`` request/response message pairs between threads 0 and 1."""
    p = _spawn_round_trips(machine, n)
    machine.run()
    return p.result, machine.sim.events_processed, machine.now


def _spawn_round_trips(machine, n=2_000):
    """Spawn :func:`_round_trips`'s two threads; returns the client."""
    t0 = machine.thread(0)
    t1 = machine.thread(1)

    def server():
        for _ in range(n):
            (v,) = yield from t0.receive(1)
            yield from t0.send(1, [v + 1])

    def client():
        total = 0
        for i in range(n):
            yield from t1.send(0, [i])
            (v,) = yield from t1.receive(1)
            total += v
        return total

    machine.spawn(t0, server())
    return machine.spawn(t1, client())


def test_udn_message_round_trips(benchmark):
    """Request/response ping-pong through the hardware message queues."""

    def run():
        return _round_trips(Machine(tile_gx()))

    # events and cycles pinned before the cheaper message path: a
    # host-only speed-up must not add, drop or move a single event
    expected = sum(i + 1 for i in range(2_000))
    assert benchmark(run) == (expected, 16_002, 40_000)


def test_observed_round_trips_write_counters_without_an_obs_call():
    """The ping-pong with the counter file on: every publish site writes
    its registers in place, so the run makes no call into a function
    defined in ``repro.obs`` (one per send, delivery and receive and one
    for the latency bucket were made when the file had write methods:
    16,002 in all).  Only repro functions are counted, so the pin is the
    same on every Python version; the snapshot is the one those methods
    wrote."""
    obs_dir = os.path.dirname(repro.obs.__file__) + os.sep
    m = Machine(tile_gx())
    counters = m.enable_observability().counters
    client = _spawn_round_trips(m)
    prof = cProfile.Profile()
    prof.runcall(m.run)
    obs_calls = sum(nc for (path, _, _), (_, nc, *_) in
                    pstats.Stats(prof).stats.items()
                    if path.startswith(obs_dir))
    assert (client.result, m.sim.events_processed, m.now) == (
        sum(i + 1 for i in range(2_000)), 16_002, 40_000)
    assert obs_calls == 0
    snap = counters.snapshot()
    assert snap["core"] == {
        cid: {"udn_words_sent": 2_000, "udn_msgs_sent": 2_000,
              "udn_words_received": 2_000, "udn_msgs_received": 2_000,
              "udn_wait_cycles": wait}
        for cid, wait in ((0, 29_993), (1, 30_000))}
    assert snap["udn_hist"] == {3: 4_000}
    assert snap["global"] == {"udn_deliveries": 4_000}
    assert snap["line"] == snap["link"] == {}


def test_udn_message_round_trips_with_hop_ledger(benchmark):
    """The same ping-pong with the spatial hop totals on: the fabric
    counts them inline per (src, dst) pair, so no send or delivery
    reaches a bus subscriber and the run is event for event the
    atlas-only one."""

    def run(**options):
        m = Machine(tile_gx())
        ob = m.enable_observability(**options)
        return _round_trips(m), ob

    plain, ob_plain = run(spatial=True)
    result, ob = benchmark(lambda: run(spatial_hops=True))
    assert result == plain == (sum(i + 1 for i in range(2_000)),
                               16_002, 40_000)
    assert ob.bus.events_emitted == ob_plain.bus.events_emitted
    assert not {"udn.send", "udn.deliver"} & ob.bus.wanted
    assert ob.spatial.hop_totals["messages"] == 4_000


def test_udn_round_trips_emit_only_wanted_kinds(benchmark):
    """The same ping-pong under three consumers: a publish site builds
    an event only for a kind some consumer wants.  The hop totals and
    the flight ring want no UDN kind, so the run emits nothing; a trace
    wants send, deliver and receive (6 events per round trip) but not
    process spawn/exit."""

    def run(**options):
        m = Machine(tile_gx())
        ob = m.enable_observability(**options)
        return _round_trips(m), ob.bus

    expected = (sum(i + 1 for i in range(2_000)), 16_002, 40_000)
    result, bus = benchmark(lambda: run(spatial_hops=True))
    assert result == expected and bus.events_emitted == 0
    assert not {"udn.send", "udn.deliver", "udn.recv"} & bus.wanted
    result, bus = run(flight=True)
    assert result == expected and bus.events_emitted == 0
    result, bus = run(trace=True)
    assert result == expected and bus.events_emitted == 12_000


def test_contended_udn_round_trips_emit_nothing_for_the_atlas(benchmark):
    """The same ping-pong on the contended mesh with the hop totals on:
    the atlas reads link occupancy from the counter file and the fabric
    counts each pair's link queueing inline, so no ``noc.link`` event is
    built (4,000 were while the atlas subscribed to them)."""

    def run():
        m = Machine(tile_gx(contended_noc=True))
        ob = m.enable_observability(spatial_hops=True)
        return _round_trips(m), ob

    result, ob = benchmark(run)
    assert result == (sum(i + 1 for i in range(2_000)), 24_002, 40_000)
    assert ob.bus.wanted == frozenset() and ob.bus.events_emitted == 0
    atlas = ob.spatial
    hops = atlas.mesh.hops(ob.machine.cores[0].node, ob.machine.cores[1].node)
    totals = atlas.summary()["hops"]
    assert totals["messages"] == 4_000
    assert totals["transit"] == 4_000 * atlas.mesh.per_hop * hops


def test_udn_backpressure_fifo(benchmark):
    """Three senders of 3-word messages into a 4-word buffer: only one
    message fits at a time, so every send queues for space in FIFO
    order; one sender uses timed sends and retries after each expiry
    (a withdrawn reservation)."""
    rounds = 30

    def run():
        from repro.udn import SendTimeout

        m = Machine(tile_gx(udn_buffer_words=4))
        rx = m.thread(0)
        order = []
        expiries = [0]

        def sender(ctx, timed):
            for i in range(rounds):
                while True:
                    try:
                        yield from ctx.send(0, [ctx.tid, i, 0],
                                            timeout=60 if timed else None)
                        break
                    except SendTimeout:
                        expiries[0] += 1

        def receiver():
            for _ in range(3 * rounds):
                tid, _, _ = yield from rx.receive(3)
                order.append(tid)
                yield from rx.work(20)

        for tid in (1, 2, 3):
            ctx = m.thread(tid)
            m.spawn(ctx, sender(ctx, timed=tid == 3))
        m.spawn(rx, receiver())
        m.run()
        return (m.sim.events_processed, m.udn.backpressure_cycles,
                expiries[0], "".join(map(str, order)))

    # pinned before the cheaper message path, like the round trips above
    order = ("123121231212312123121231212312123121231212312"
             "123121231212312123121231212312333333333333333")
    assert benchmark(run) == (529, 5_205, 15, order)


def test_1024_core_machine_holds_state_for_its_256_threads_only():
    """A contended 32x32 mesh with 256 registered threads (the scale-1024
    shape) builds one UDN queue per registered thread, no waiter deque
    until something blocks, and no link before a packet crosses one; so
    construction retains well under the 5.4 MB that 4,096 queues and a
    deque per core buffer cost."""
    from collections import deque

    from repro.machine import mesh_profile

    cfg = mesh_profile(32, 32, contended_noc=True)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        m = Machine(cfg)
        for tid in range(256):
            m.thread(tid, core_id=4 * tid)
        gc.collect()
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    udn = m.udn
    assert len(udn._queues) == 256
    waiter_queues = [b._waiters for b in udn._buffers]
    waiter_queues += [link._waiters for link in m.contended_mesh._links.values()]
    assert sum(isinstance(w, deque) for w in waiter_queues) == 0
    assert kept <= 1_200_000, kept


def test_atomic_faa_throughput(benchmark):
    """Controller atomics under contention from four cores."""

    def run():
        m = Machine(tile_gx())
        a = m.mem.alloc(1)

        def prog(ctx):
            for _ in range(1_000):
                yield from ctx.faa(a, 1)

        for i in range(4):
            ctx = m.thread(i)
            m.spawn(ctx, prog(ctx))
        m.run()
        return m.mem.peek(a)

    assert benchmark(run) == 4_000


def test_cache_atomics_and_prefetch_join(benchmark):
    """Four cores contend with cache-resident ``faa`` on one line while a
    reader on a fifth core prefetches the line and then loads it: every
    atomic takes ownership (bouncing the line and invalidating the
    reader's copy), and the load joins its in-flight prefetch."""
    rounds = 200

    def run():
        m = Machine(x86_like())
        counters = m.enable_observability().counters
        a = m.mem.alloc(1, isolated=True)

        def adder(ctx):
            for _ in range(rounds):
                yield from ctx.faa(a, 1)
                yield from ctx.work(7 * ctx.tid)

        def reader(ctx):
            seen = 0
            for i in range(rounds // 4):
                yield from ctx.prefetch(a)
                # a short gap joins the fetch in flight; a long one lets
                # an atomic take the line back, so the load misses again
                yield from ctx.work(30 if i % 2 else 3_000)
                seen = yield from ctx.load(a)
            return seen

        for tid in range(4):
            ctx = m.thread(tid, core_id=3 * tid)
            m.spawn(ctx, adder(ctx))
        ctx = m.thread(4, core_id=13)
        m.spawn(ctx, reader(ctx))
        m.run()
        regs = {c.cid: (c.rmr, c.stall_atomic, c.stall_mem)
                for c in m.cores if c.rmr or c.stall_mem}
        misses = {(cid, name): n
                  for cid, core in sorted(counters.snapshot()["core"].items())
                  for name, n in sorted(core.items())
                  if name.startswith("miss.")}
        return (m.mem.peek(a), m.sim.events_processed, m.now, regs, misses)

    # pinned before the shared read and ownership steps: moving the
    # coherence transactions into one path must not add, drop or move
    # a single event, cycle, stall or miss
    regs = {0: (200, 112_774, 0), 3: (200, 111_522, 0),
            6: (200, 110_270, 0), 9: (200, 109_018, 0), 13: (42, 0, 28_047)}
    misses = {(0, "miss.atomic.M->M"): 197, (0, "miss.atomic.inv"): 2,
              (0, "miss.atomic.mem->M"): 1,
              (3, "miss.atomic.M->M"): 183, (3, "miss.atomic.inv"): 17,
              (6, "miss.atomic.M->M"): 176, (6, "miss.atomic.inv"): 24,
              (9, "miss.atomic.M->M"): 184, (9, "miss.atomic.inv"): 16,
              (13, "miss.load.M->S"): 42, (13, "miss.prefetch.M->S"): 17}
    assert benchmark(run) == (800, 3_314, 113_218, regs, misses)
