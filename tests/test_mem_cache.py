"""Tests for the coherence protocol: states, costs, RMR/stall accounting."""


import pytest

from repro.machine import Machine, tile_gx
from repro.mem import LineState
from repro.sim.engine import DeadlockError


def make_machine(**over):
    return Machine(tile_gx(**over))


def run_thread(m, tid, gen_fn):
    ctx = m.thread(tid)
    p = m.spawn(ctx, gen_fn(ctx))
    m.run()
    return ctx, p


# -- basic load/store ------------------------------------------------------

def test_load_of_uninitialized_memory_is_zero():
    m = make_machine()
    a = m.mem.alloc(1)

    def prog(ctx):
        v = yield from ctx.load(a)
        return v

    _, p = run_thread(m, 0, prog)
    assert p.result == 0


def test_store_then_load_round_trip():
    m = make_machine()
    a = m.mem.alloc(1)

    def prog(ctx):
        yield from ctx.store(a, 77)
        v = yield from ctx.load(a)
        return v

    _, p = run_thread(m, 0, prog)
    assert p.result == 77


def test_first_load_misses_then_hits():
    m = make_machine()
    a = m.mem.alloc(1)

    def prog(ctx):
        yield from ctx.load(a)
        miss_stall = ctx.core.stall_mem
        yield from ctx.load(a)
        return miss_stall, ctx.core.stall_mem

    _, p = run_thread(m, 0, prog)
    miss_stall, total_stall = p.result
    assert miss_stall > 0          # cold miss stalls
    assert total_stall == miss_stall  # second load is a free hit (no extra stall)


def test_load_hit_costs_c_hit_busy():
    m = make_machine()
    a = m.mem.alloc(1)

    def prog(ctx):
        yield from ctx.load(a)
        busy0 = ctx.core.busy
        t0 = m.now
        yield from ctx.load(a)
        return ctx.core.busy - busy0, m.now - t0

    _, p = run_thread(m, 0, prog)
    busy, elapsed = p.result
    assert busy == elapsed == m.cfg.c_hit


def test_store_hit_in_owned_line_is_cheap():
    m = make_machine()
    a = m.mem.alloc(1)

    def prog(ctx):
        yield from ctx.store(a, 1)   # miss: take ownership
        rmr0 = ctx.core.rmr
        yield from ctx.store(a, 2)   # hit in M
        return rmr0, ctx.core.rmr

    _, p = run_thread(m, 0, prog)
    assert p.result[0] == 1
    assert p.result[1] == 1  # no new RMR


def test_words_on_same_line_share_state():
    m = make_machine()
    a = m.mem.alloc(8, isolated=True)  # one full line

    def prog(ctx):
        yield from ctx.load(a)
        rmr0 = ctx.core.rmr
        yield from ctx.load(a + 7)   # same line -> hit
        return rmr0, ctx.core.rmr

    _, p = run_thread(m, 0, prog)
    assert p.result[0] == p.result[1] == 1


# -- cross-core coherence -----------------------------------------------------

def test_single_writer_invalidates_reader():
    """The classic channel pattern of Figure 1: each access after a remote
    write is an RMR on the accessor."""
    m = make_machine()
    a = m.mem.alloc(1, isolated=True)
    t0 = m.thread(0)
    t1 = m.thread(1)

    def writer(ctx):
        yield from ctx.store(a, 5)

    def reader(ctx):
        yield 200  # let the writer go first
        v = yield from ctx.load(a)
        rmr_first = ctx.core.rmr
        v2 = yield from ctx.load(a)
        return v, v2, rmr_first, ctx.core.rmr

    m.spawn(t0, writer(t0))
    p = m.spawn(t1, reader(t1))
    m.run()
    v, v2, rmr_first, rmr_total = p.result
    assert v == v2 == 5
    assert rmr_first == 1          # fetched from the writer's cache
    assert rmr_total == 1          # second read hits locally


def test_write_after_remote_read_is_rmr():
    m = make_machine()
    a = m.mem.alloc(1, isolated=True)
    t0 = m.thread(0)
    t1 = m.thread(1)

    def reader(ctx):
        yield from ctx.load(a)

    def writer(ctx):
        yield 200
        rmr0 = ctx.core.rmr
        yield from ctx.store(a, 9)
        return ctx.core.rmr - rmr0

    m.spawn(t0, reader(t0))
    p = m.spawn(t1, writer(t1))
    m.run()
    assert p.result == 1


def test_sharers_coexist_on_reads():
    m = make_machine()
    a = m.mem.alloc(1, isolated=True)
    ctxs = [m.thread(i) for i in range(4)]

    def reader(ctx):
        yield from ctx.load(a)

    for ctx in ctxs:
        m.spawn(ctx, reader(ctx))
    m.run()
    for ctx in ctxs:
        assert m.mem.cached_state(ctx.core.cid, a) == LineState.S
    m.mem.check_all_swmr()


def test_writer_gets_exclusive_ownership():
    m = make_machine()
    a = m.mem.alloc(1, isolated=True)
    ctxs = [m.thread(i) for i in range(3)]

    def reader(ctx):
        yield from ctx.load(a)

    def writer(ctx):
        yield 500
        yield from ctx.store(a, 1)

    m.spawn(ctxs[0], reader(ctxs[0]))
    m.spawn(ctxs[1], reader(ctxs[1]))
    m.spawn(ctxs[2], writer(ctxs[2]))
    m.run()
    assert m.mem.cached_state(2, a) == LineState.M
    assert m.mem.cached_state(0, a) is None
    assert m.mem.cached_state(1, a) is None
    m.mem.check_all_swmr()


def test_remote_fetch_costs_more_than_hit():
    m = make_machine()
    a = m.mem.alloc(1, isolated=True)
    t0 = m.thread(0)
    t1 = m.thread(35)  # far corner of the mesh

    def writer(ctx):
        yield from ctx.store(a, 5)

    def reader(ctx):
        yield 500
        s0 = ctx.core.stall_mem
        yield from ctx.load(a)
        return ctx.core.stall_mem - s0

    m.spawn(t0, writer(t0))
    p = m.spawn(t1, reader(t1))
    m.run()
    assert p.result >= m.cfg.c_remote_base


# -- spinning ---------------------------------------------------------------

def test_spin_until_sees_remote_write():
    m = make_machine()
    a = m.mem.alloc(1, isolated=True)
    t0 = m.thread(0)
    t1 = m.thread(1)

    def spinner(ctx):
        v = yield from ctx.spin_until(a, lambda v: v == 42)
        return v, m.now

    def writer(ctx):
        yield 1000
        yield from ctx.store(a, 42)

    p = m.spawn(t0, spinner(t0))
    m.spawn(t1, writer(t1))
    m.run()
    v, t = p.result
    assert v == 42
    assert t >= 1000


def test_spin_until_immediate_if_pred_holds():
    m = make_machine()
    a = m.mem.alloc(1)
    m.mem.poke(a, 7)

    def prog(ctx):
        v = yield from ctx.spin_until(a, lambda v: v == 7)
        return v

    _, p = run_thread(m, 0, prog)
    assert p.result == 7


def test_spinning_time_counts_as_wait_not_stall():
    m = make_machine()
    a = m.mem.alloc(1, isolated=True)
    t0 = m.thread(0)
    t1 = m.thread(1)

    def spinner(ctx):
        yield from ctx.spin_until(a, lambda v: v == 1)
        return ctx.core.wait, ctx.core.stall_mem

    def writer(ctx):
        yield 5000
        yield from ctx.store(a, 1)

    p = m.spawn(t0, spinner(t0))
    m.spawn(t1, writer(t1))
    m.run()
    wait, stall = p.result
    assert wait > 4000               # slept most of the 5000 cycles
    assert stall < 200               # only the two fetches


def test_spin_until_survives_false_wakeups():
    """Writes that do not satisfy the predicate must not terminate the spin."""
    m = make_machine()
    a = m.mem.alloc(1, isolated=True)
    t0 = m.thread(0)
    t1 = m.thread(1)

    def spinner(ctx):
        v = yield from ctx.spin_until(a, lambda v: v >= 3)
        return v

    def writer(ctx):
        for val in (1, 2, 3):
            yield 300
            yield from ctx.store(a, val)

    p = m.spawn(t0, spinner(t0))
    m.spawn(t1, writer(t1))
    m.run()
    assert p.result == 3


# -- fences -------------------------------------------------------------------

def test_fence_charges_stall():
    m = make_machine()

    def prog(ctx):
        yield from ctx.fence()
        return ctx.core.stall_fence

    _, p = run_thread(m, 0, prog)
    assert p.result == m.cfg.c_fence


# -- misc ----------------------------------------------------------------------

def test_peek_poke_cost_nothing():
    m = make_machine()
    a = m.mem.alloc(1)
    m.mem.poke(a, 5)
    assert m.mem.peek(a) == 5
    assert m.now == 0


def test_concurrent_stores_serialize_on_line():
    """Two cores hammering the same line must serialize at the directory."""
    m = make_machine(debug_checks=True)
    a = m.mem.alloc(1, isolated=True)
    ctxs = [m.thread(i) for i in range(2)]

    def prog(ctx):
        for i in range(50):
            yield from ctx.store(a, ctx.tid * 1000 + i)

    for ctx in ctxs:
        m.spawn(ctx, prog(ctx))
    m.run()
    m.mem.check_all_swmr()
    # last committed value must be one of the final writes
    assert m.mem.peek(a) in (49, 1049)


# -- background store drains ------------------------------------------------

def test_store_drain_that_never_wins_its_line_names_the_waiting_thread():
    """A buffered store miss drains as a background task, which deadlock
    detection does not list: a thread fencing on a drain that can never
    win its line's directory slot is what the error names."""
    m = make_machine()
    a = m.mem.alloc(1)
    # hold the line's directory slot for ever: its drain queues behind it
    assert m.mem._line(a // m.mem._line_words).res.try_acquire()

    def prog(ctx):
        yield from ctx.store(a, 1)  # a miss: buffered, drains in the background
        yield from ctx.fence()      # waits for that drain

    ctx = m.thread(0)
    p = m.spawn(ctx, prog(ctx), name="writer")
    with pytest.raises(DeadlockError) as ei:
        m.run()
    assert ei.value.blocked == [p]
    assert "process 'writer' blocked on a store-buffer drain" in str(ei.value)
    assert m.mem.peek(a) == 1  # the value committed at issue
