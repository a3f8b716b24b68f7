"""Unit tests for the discrete-event engine (repro.sim.engine)."""

import pytest

from repro.sim import Event, Interrupt, Simulator
from repro.sim.engine import all_of


def test_clock_starts_at_zero():
    sim = Simulator()
    assert sim.now == 0


def test_delay_advances_clock():
    sim = Simulator()

    def proc():
        yield 10
        yield 5
        return sim.now

    p = sim.spawn(proc())
    sim.run()
    assert sim.now == 15
    assert p.result == 15


def test_zero_delay_is_legal():
    sim = Simulator()

    def proc():
        yield 0
        return "done"

    p = sim.spawn(proc())
    sim.run()
    assert p.result == "done"
    assert sim.now == 0


def test_fifo_order_for_simultaneous_events():
    sim = Simulator()
    order = []

    def proc(name):
        yield 10
        order.append(name)

    for name in ("a", "b", "c"):
        sim.spawn(proc(name))
    sim.run()
    assert order == ["a", "b", "c"]


def test_processes_interleave_by_time():
    sim = Simulator()
    trace = []

    def slow():
        yield 10
        trace.append(("slow", sim.now))

    def fast():
        yield 3
        trace.append(("fast", sim.now))
        yield 3
        trace.append(("fast", sim.now))

    sim.spawn(slow())
    sim.spawn(fast())
    sim.run()
    assert trace == [("fast", 3), ("fast", 6), ("slow", 10)]


def test_event_wakes_all_waiters_with_value():
    sim = Simulator()
    ev = Event(sim)
    got = []

    def waiter():
        v = yield ev
        got.append((sim.now, v))

    def trigger():
        yield 7
        ev.trigger("payload")

    sim.spawn(waiter())
    sim.spawn(waiter())
    sim.spawn(trigger())
    sim.run()
    assert got == [(7, "payload"), (7, "payload")]


def test_already_triggered_event_resumes_immediately():
    sim = Simulator()
    ev = Event(sim)
    ev.trigger(42)

    def waiter():
        v = yield ev
        return v

    p = sim.spawn(waiter())
    sim.run()
    assert p.result == 42


def test_event_double_trigger_raises():
    sim = Simulator()
    ev = Event(sim)
    ev.trigger()
    with pytest.raises(RuntimeError):
        ev.trigger()


def test_join_returns_result():
    sim = Simulator()

    def child():
        yield 5
        return "child-result"

    def parent():
        c = sim.spawn(child())
        r = yield from c.join()
        return (sim.now, r)

    p = sim.spawn(parent())
    sim.run()
    assert p.result == (5, "child-result")


def test_join_on_finished_process():
    sim = Simulator()

    def child():
        yield 1
        return 99

    def parent(c):
        yield 10
        r = yield from c.join()
        return r

    c = sim.spawn(child())
    p = sim.spawn(parent(c))
    sim.run()
    assert p.result == 99


def test_all_of_collects_results_in_order():
    sim = Simulator()

    def child(n):
        yield n
        return n * n

    def parent():
        procs = [sim.spawn(child(n)) for n in (5, 1, 3)]
        results = yield from all_of(sim, procs)
        return results

    p = sim.spawn(parent())
    sim.run()
    assert p.result == [25, 1, 9]


def test_run_until_leaves_future_events_queued():
    sim = Simulator()
    hits = []

    def proc():
        yield 10
        hits.append(sim.now)
        yield 10
        hits.append(sim.now)

    sim.spawn(proc())
    sim.run(until=15)
    assert hits == [10]
    assert sim.now == 15
    sim.run()
    assert hits == [10, 20]


def test_run_until_with_no_events_advances_clock():
    sim = Simulator()
    sim.run(until=100)
    assert sim.now == 100


def test_call_at_relative_callback():
    sim = Simulator()
    fired = []
    sim.call_at(sim.now + 25, lambda: fired.append(sim.now))
    sim.run()
    assert fired == [25]


def test_call_at_in_past_raises():
    sim = Simulator()

    def proc():
        yield 10
        sim.call_at(5, lambda: None)

    sim.spawn(proc())
    with pytest.raises(ValueError):
        sim.run()


def test_negative_delay_raises_instead_of_running_the_clock_back():
    sim = Simulator()

    def proc():
        yield 10
        yield -5

    sim.spawn(proc())
    with pytest.raises(ValueError, match=r"cannot schedule in the past \(5 < 10\)"):
        sim.run()
    assert sim.now == 10


def test_interrupt_blocked_process():
    sim = Simulator()
    ev = Event(sim)

    def victim():
        try:
            yield ev
            return "not-interrupted"
        except Interrupt as exc:
            return ("interrupted", exc.cause, sim.now)

    def attacker(v):
        yield 4
        v.interrupt("timeout")

    v = sim.spawn(victim())
    sim.spawn(attacker(v))
    sim.run()
    assert v.result == ("interrupted", "timeout", 4)
    # the event's waiter list must not retain the interrupted process
    ev.trigger()
    sim.run()


def test_process_exception_propagates():
    sim = Simulator()

    def bad():
        yield 1
        raise ValueError("boom")

    sim.spawn(bad())
    with pytest.raises(ValueError, match="boom"):
        sim.run()


def test_unsupported_effect_raises_typeerror():
    sim = Simulator()

    def bad():
        yield "nonsense"

    sim.spawn(bad())
    with pytest.raises(TypeError):
        sim.run()


def test_max_events_guard():
    sim = Simulator(max_events=10)

    def spinner():
        while True:
            yield 1

    sim.spawn(spinner())
    with pytest.raises(RuntimeError, match="exceeded"):
        sim.run()


def test_determinism_two_identical_runs():
    def build():
        sim = Simulator()
        trace = []

        def proc(name, period):
            for _ in range(5):
                yield period
                trace.append((name, sim.now))

        sim.spawn(proc("a", 3))
        sim.spawn(proc("b", 3))
        sim.spawn(proc("c", 7))
        sim.run()
        return trace

    assert build() == build()


# ---------------------------------------------------------------------------
# fault semantics: generation-guarded resumption, kill, deadlock detection
# ---------------------------------------------------------------------------

def test_interrupt_during_int_sleep_steps_exactly_once():
    """Regression: interrupting a process sleeping on an ``int`` delay used
    to leave the stale sleep-expiry entry in the heap, stepping the
    generator a second time."""
    sim = Simulator()
    resumes = []

    def victim():
        try:
            yield 100  # plain int sleep, no Event involved
        except Interrupt as exc:
            resumes.append(("interrupted", sim.now, exc.cause))
        yield 50
        resumes.append(("slept", sim.now))

    def attacker(v):
        yield 10
        v.interrupt("preempt")

    v = sim.spawn(victim())
    sim.spawn(attacker(v))
    sim.run()
    # one interrupt at t=10, then exactly one resume of the follow-up sleep
    assert resumes == [("interrupted", 10, "preempt"), ("slept", 60)]
    assert sim.now == 60  # the stale wakeup at t=100 must not exist


def test_interrupt_after_event_trigger_same_cycle():
    """An interrupt still lands when the awaited event already triggered
    but the process has not stepped yet (wakeup in flight)."""
    sim = Simulator()
    ev = Event(sim)
    out = []

    def victim():
        try:
            v = yield ev
            out.append(("value", v))
        except Interrupt:
            out.append(("interrupted", sim.now))

    def meddler(v):
        yield 5
        ev.trigger("late")
        v.interrupt("now")

    v = sim.spawn(victim())
    sim.spawn(meddler(v))
    sim.run()
    assert out == [("interrupted", 5)]


def test_kill_skips_finally_blocks():
    """A fail-stop crash must execute nothing -- not even cleanup."""
    sim = Simulator()
    cleaned = []

    def victim():
        try:
            yield 100
        finally:
            cleaned.append("ran")

    def killer(v):
        yield 10
        v.kill("crash")

    v = sim.spawn(victim())
    sim.spawn(killer(v))
    sim.run()
    assert v.killed and not v.alive
    assert cleaned == []  # finally must NOT have run


def test_kill_releases_joiners_with_none():
    sim = Simulator()

    def victim():
        yield 1000
        return "never"

    def killer(v):
        yield 10
        v.kill()

    def joiner(v):
        r = yield from v.join()
        return (sim.now, r)

    v = sim.spawn(victim())
    sim.spawn(killer(v))
    j = sim.spawn(joiner(v))
    sim.run()
    assert j.result == (10, None)


def test_kill_while_sleeping_cancels_pending_wakeup():
    sim = Simulator()

    def victim():
        yield 100

    def killer(v):
        yield 10
        v.kill()

    v = sim.spawn(victim())
    sim.spawn(killer(v))
    sim.run()
    assert sim.now == 10  # the t=100 wakeup must have been dropped


def test_shield_defers_kill_to_region_end():
    sim = Simulator()
    progress = []

    def victim():
        p = sim.current
        p.shield_begin()
        yield 20  # crash arrives here, must be deferred
        progress.append(("inside", sim.now))
        p.shield_end()
        yield 1  # deferred crash lands at this resume
        progress.append(("outside", sim.now))

    def killer(v):
        yield 10
        v.kill("crash")

    v = sim.spawn(victim())
    sim.spawn(killer(v))
    sim.run()
    assert progress == [("inside", 20)]  # shielded step ran, next one did not
    assert v.killed


def test_deadlock_detector_names_blocked_processes():
    from repro.sim import DeadlockError

    sim = Simulator()
    ev = sim.event(label="a condition that never fires")

    def stuck():
        yield ev

    sim.spawn(stuck(), name="stuck-proc")
    with pytest.raises(DeadlockError) as ei:
        sim.run()
    assert "stuck-proc" in str(ei.value)
    assert "a condition that never fires" in str(ei.value)
    assert [p.name for p in ei.value.blocked] == ["stuck-proc"]


def test_daemon_processes_exempt_from_deadlock_detection():
    sim = Simulator()
    ev = sim.event()

    def server():
        yield ev  # idles forever, legitimately

    def client():
        yield 5
        return "done"

    sim.spawn(server(), name="server", daemon=True)
    p = sim.spawn(client())
    sim.run()  # must NOT raise
    assert p.result == "done"


def test_deadlock_detection_can_be_disabled():
    sim = Simulator()
    sim.detect_deadlock = False
    ev = sim.event()

    def stuck():
        yield ev

    sim.spawn(stuck())
    sim.run()  # old silent-return behaviour


def test_suspend_until_defers_wakeups():
    sim = Simulator()
    out = []

    def victim():
        yield 10  # wakeup due at t=10 is deferred to t=50
        out.append(sim.now)

    def preemptor(v):
        yield 5
        v.suspend_until(50)

    v = sim.spawn(victim())
    sim.spawn(preemptor(v))
    sim.run()
    assert out == [50]


def test_waittimer_does_not_fire_after_disarm():
    from repro.sim import WaitTimer

    sim = Simulator()
    ev = Event(sim)
    out = []

    def waiter():
        p = sim.current
        timer = WaitTimer(sim, p, 100)
        v = yield ev
        timer.disarm()
        out.append(("got", v, sim.now))
        yield 200  # run past the (disarmed) deadline

    def trigger():
        yield 30
        ev.trigger("x")

    sim.spawn(waiter())
    sim.spawn(trigger())
    sim.run()
    assert out == [("got", "x", 30)]


# -- yielded-effect coercion (the old dead isinstance(effect, int) branch) --
# Non-plain-int delays now go through operator.index: bools and numpy
# integer scalars are real delays, floats and arbitrary objects raise.

def test_yield_bool_true_is_one_cycle_sleep():
    sim = Simulator()
    seen = []

    def proc():
        yield True
        seen.append(sim.now)

    sim.spawn(proc())
    sim.run()
    assert seen == [1]


def test_yield_numpy_int_is_a_delay():
    np = pytest.importorskip("numpy")
    sim = Simulator()
    seen = []

    def proc():
        yield np.int64(3)
        seen.append(sim.now)
        yield np.int32(0)  # zero-delay resume, same cycle
        seen.append(sim.now)

    sim.spawn(proc())
    sim.run()
    assert seen == [3, 3]


def test_yield_float_raises():
    sim = Simulator()

    def proc():
        yield 1.5

    sim.spawn(proc())
    with pytest.raises(TypeError, match="unsupported effect"):
        sim.run()


def test_yield_arbitrary_object_raises():
    sim = Simulator()

    def proc():
        yield object()

    sim.spawn(proc())
    with pytest.raises(TypeError, match="unsupported effect"):
        sim.run()
