"""Tests for the atomic RMW executors (controller and cache modes)."""

import pytest

from repro.machine import Machine, scc_like, tile_gx, x86_like


def run_thread(m, tid, gen_fn):
    ctx = m.thread(tid)
    p = m.spawn(ctx, gen_fn(ctx))
    m.run()
    return ctx, p


# -- semantics (both executors) ----------------------------------------------

@pytest.fixture(params=["tile", "x86"])
def machine(request):
    return Machine(tile_gx() if request.param == "tile" else x86_like())


def test_faa_returns_old_value(machine):
    m = machine
    a = m.mem.alloc(1)
    m.mem.poke(a, 10)

    def prog(ctx):
        old = yield from ctx.faa(a, 5)
        return old, m.mem.peek(a)

    _, p = run_thread(m, 0, prog)
    assert p.result == (10, 15)


def test_faa_wraps_at_64_bits(machine):
    m = machine
    a = m.mem.alloc(1)
    m.mem.poke(a, (1 << 64) - 1)

    def prog(ctx):
        old = yield from ctx.faa(a, 1)
        return old, m.mem.peek(a)

    _, p = run_thread(m, 0, prog)
    assert p.result == ((1 << 64) - 1, 0)


def test_swap_returns_old_and_installs_new(machine):
    m = machine
    a = m.mem.alloc(1)
    m.mem.poke(a, 3)

    def prog(ctx):
        old = yield from ctx.swap(a, 9)
        return old, m.mem.peek(a)

    _, p = run_thread(m, 0, prog)
    assert p.result == (3, 9)


def test_cas_success(machine):
    m = machine
    a = m.mem.alloc(1)
    m.mem.poke(a, 4)

    def prog(ctx):
        ok = yield from ctx.cas(a, 4, 8)
        return ok, m.mem.peek(a)

    _, p = run_thread(m, 0, prog)
    assert p.result == (True, 8)


def test_cas_failure_leaves_value(machine):
    m = machine
    a = m.mem.alloc(1)
    m.mem.poke(a, 4)

    def prog(ctx):
        ok = yield from ctx.cas(a, 99, 8)
        return ok, m.mem.peek(a), ctx.core.cas_failures

    _, p = run_thread(m, 0, prog)
    assert p.result == (False, 4, 1)


def test_atomicity_under_contention(machine):
    """N threads x K increments must produce exactly N*K."""
    m = machine
    a = m.mem.alloc(1)
    N, K = 6, 40

    def prog(ctx):
        for _ in range(K):
            yield from ctx.faa(a, 1)

    for i in range(N):
        ctx = m.thread(i)
        m.spawn(ctx, prog(ctx))
    m.run()
    assert m.mem.peek(a) == N * K


def test_cas_loop_counter_is_exact(machine):
    """CAS-retry increments (the Treiber pattern) must never lose updates."""
    m = machine
    a = m.mem.alloc(1)
    N, K = 4, 25

    def prog(ctx):
        for _ in range(K):
            while True:
                v = yield from ctx.load(a)
                ok = yield from ctx.cas(a, v, v + 1)
                if ok:
                    break

    for i in range(N):
        ctx = m.thread(i)
        m.spawn(ctx, prog(ctx))
    m.run()
    assert m.mem.peek(a) == N * K


@pytest.mark.parametrize("atomic_at", ["controller", "cache"])
def test_private_memory_atomic_rejected_on_either_executor(atomic_at):
    """Without coherent shared memory a line belongs to the first core
    that touches it: another core's atomic on it is an error whichever
    executor the profile names, and never builds a directory entry."""
    m = Machine(scc_like(atomic_at=atomic_at))
    a = m.mem.alloc(1, isolated=True)
    t0, t1 = m.thread(0), m.thread(1)

    def owner(ctx):
        yield from ctx.store(a, 5)

    def intruder(ctx):
        yield 100
        return (yield from ctx.faa(a, 1))

    m.spawn(t0, owner(t0))
    m.spawn(t1, intruder(t1))
    with pytest.raises(RuntimeError, match="core 1 issued an atomic"):
        m.run()
    assert m.mem.peek(a) == 5
    assert m.mem.directory_stats()["peak_entries"] == 0


# -- controller-specific behaviour ---------------------------------------------

def test_controller_atomic_stalls_issuer():
    m = Machine(tile_gx())
    a = m.mem.alloc(1)

    def prog(ctx):
        yield from ctx.faa(a, 1)
        return ctx.core.stall_atomic

    _, p = run_thread(m, 0, prog)
    assert p.result >= m.cfg.c_atomic_service


def test_controller_atomics_invalidate_cached_copies():
    m = Machine(tile_gx())
    a = m.mem.alloc(1, isolated=True)
    t0 = m.thread(0)
    t1 = m.thread(1)

    def reader(ctx):
        yield from ctx.load(a)

    def atomic(ctx):
        yield 300
        yield from ctx.faa(a, 1)

    m.spawn(t0, reader(t0))
    m.spawn(t1, atomic(t1))
    m.run()
    assert m.mem.cached_state(0, a) is None  # invalidated by the controller


def test_controller_address_interleaving():
    m = Machine(tile_gx())
    at = m.mem.atomics
    lw = m.cfg.line_words
    c0 = at.controller_for(0)
    c1 = at.controller_for(lw)  # next line -> other controller
    assert c0 is not c1


def test_false_serialization_cold_lines_slower_than_hot_stream():
    """Section 5.4's false-serialization effect: atomics spraying across
    many lines keep evicting the controller's resident line and pay the
    cold occupancy, so they finish much later than the same number of
    atomics streaming on a single hot word -- even though the sprayed
    data sets are fully independent."""
    def run(addr_fn):
        m = Machine(tile_gx())
        base = m.mem.alloc(512, isolated=True)

        def prog(ctx, i):
            for k in range(30):
                yield from ctx.faa(base + addr_fn(i, k), 1)

        for i in range(4):
            ctx = m.thread(i)
            m.spawn(ctx, prog(ctx, i))
        m.run()
        return m.now

    hot = run(lambda i, k: 0)                       # everyone on one word
    # every access on a different line, alternating between controllers
    sprayed = run(lambda i, k: ((i * 30 + k) * 8) % 512)
    # the sprayed stream is spread over two controllers working in
    # parallel, yet still finishes well behind the hot single-word stream
    assert sprayed > 1.4 * hot


def test_controller_hot_line_tracking():
    m = Machine(tile_gx())
    a = m.mem.alloc(1)

    def prog(ctx):
        yield from ctx.faa(a, 1)  # cold: first touch
        yield from ctx.faa(a, 1)  # hot: same line
        yield from ctx.faa(a, 1)

    ctx = m.thread(0)
    m.spawn(ctx, prog(ctx))
    m.run()
    ctrl = m.mem.atomics.controller_for(a)
    assert ctrl.ops == 3
    assert ctrl.cold_ops == 1


def test_atomics_wake_spinners():
    m = Machine(tile_gx())
    a = m.mem.alloc(1, isolated=True)
    t0 = m.thread(0)
    t1 = m.thread(1)

    def spinner(ctx):
        v = yield from ctx.spin_until(a, lambda v: v == 1)
        return v

    def incrementer(ctx):
        yield 500
        yield from ctx.faa(a, 1)

    p = m.spawn(t0, spinner(t0))
    m.spawn(t1, incrementer(t1))
    m.run()
    assert p.result == 1


# -- cache-mode (x86) specific ---------------------------------------------------

def test_cache_atomic_cheap_when_line_owned():
    m = Machine(x86_like())
    a = m.mem.alloc(1)

    def prog(ctx):
        yield from ctx.faa(a, 1)       # first: acquires the line
        s1 = ctx.core.stall_atomic
        yield from ctx.faa(a, 1)       # second: line-resident
        return s1, ctx.core.stall_atomic - s1

    _, p = run_thread(m, 0, prog)
    first, second = p.result
    assert second < first
    assert second == m.cfg.c_atomic_local


def test_cache_atomic_bounces_line_between_cores():
    m = Machine(x86_like())
    a = m.mem.alloc(1, isolated=True)
    ctxs = [m.thread(i) for i in range(2)]

    def prog(ctx):
        for _ in range(10):
            yield from ctx.faa(a, 1)

    for ctx in ctxs:
        m.spawn(ctx, prog(ctx))
    m.run()
    assert m.mem.peek(a) == 20
    # both cores paid RMRs for the bouncing line
    assert all(ctx.core.rmr > 0 for ctx in ctxs)
