"""Differential test: the engine against its reference scheduler.

``tests/engine_oracle.py`` states the engine's ordering contract as a
scheduler with one ``heapq`` of ``(cycle, seq, entry)``.  Hypothesis
generates programs of 1-12 processes, each a list of effects (sleeps,
event waits and triggers, callbacks, interrupts, kills, shields,
suspensions, timed waits, resource holds, joins, background tasks),
with an optional sample hook, ``max_events`` cap and ``run(until)``
horizon.  Each program runs on both schedulers, once with no policy and
once under a seeded ``RandomWalkPolicy`` (one instance per scheduler),
and everything observable must be identical: the
``(cycle, process, step, value)`` trace, the final clock, the event
count, how the run ended, each process's fate, the slots each resource
still holds and the policy's decisions.

Mutation check (recorded here; run each on a scratch copy of
``src/repro/sim/_engine_core.py``, every one must fail this test):

1. advance the clock and fire the sample hook at a bucket's first entry
   instead of its first live one (treat the head as always live);
2. drop ``_Throw``'s generation compare (``self.gen != proc._resume_gen``
   never stale);
3. let the exact-cap sweep raise one event late (``nevents > max_events``
   becomes ``nevents > max_events + 1``);
4. offer bucket drains to ``policy.reorder_lane`` as well as lane chunks.
"""

from __future__ import annotations

import re
from types import SimpleNamespace

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.explore import RandomWalkPolicy
from repro.sim import engine, resources
from repro.sim.engine import DeadlockError, Interrupt, WaitTimer
from tests import engine_oracle as oracle

ENGINE = SimpleNamespace(Simulator=engine.Simulator,
                         Resource=resources.Resource)
ORACLE = SimpleNamespace(Simulator=oracle.Simulator,
                         Resource=oracle.Resource)

#: an object's repr in an error message differs between the schedulers
_ADDRESS = re.compile(r"<[\w.]+ object at 0x[0-9a-f]+>")

NUM_EVENTS = 4
#: capacities of the program's resources
CAPACITIES = (1, 2)


# -- the effects a process step can have --------------------------------------
# Each op is a generator ``op(sim, env, me, tag, *args)`` returning the
# value the trace records; instant ops yield nothing.


def _instant(fn):
    def op(*args):
        return fn(*args)
        yield  # pragma: no cover - makes ``op`` a generator
    return op


def _sleep(sim, env, me, tag, d):
    yield d


def _wait(sim, env, me, tag, k):
    return (yield env.events[k])


@_instant
def _trigger(sim, env, me, tag, k):
    ev = env.events[k]
    if ev.triggered:
        return False
    ev.trigger(tag)
    return True


@_instant
def _call(sim, env, me, tag, d, k):
    def cb():
        env.trace.append((sim.now, "cb", tag, sim.current is None))
        if k is not None and not env.events[k].triggered:
            env.events[k].trigger(tag)
    sim.call_at(sim.now + d, cb)


@_instant
def _interrupt(sim, env, me, tag, j):
    env.procs[j % len(env.procs)].interrupt(tag)


@_instant
def _kill(sim, env, me, tag, j):
    env.procs[j % len(env.procs)].kill(tag)


def _shield(sim, env, me, tag, d):
    me.shield_begin()
    try:
        yield d
    finally:
        me.shield_end()


@_instant
def _suspend(sim, env, me, tag, j, d):
    env.procs[j % len(env.procs)].suspend_until(sim.now + d)


def _timed_wait(sim, env, me, tag, k, t):
    timer = WaitTimer(sim, me, sim.now + t)
    try:
        return (yield env.events[k])
    except Interrupt as exc:
        if exc.cause is timer:
            return "timeout"
        raise
    finally:
        timer.disarm()


def _hold(sim, env, me, tag, r, d):
    res = env.res[r]
    yield from res.acquire()
    try:
        yield d
    finally:
        res.release()


def _try_hold(sim, env, me, tag, r, d):
    res = env.res[r]
    if not res.try_acquire():
        return False
    try:
        yield d
    finally:
        res.release()
    return True


def _timed_hold(sim, env, me, tag, r, t, d):
    res = env.res[r]
    ok = yield from res.acquire_timeout(t)
    if ok:
        try:
            yield d
        finally:
            res.release()
    return ok


@_instant
def _release_at(sim, env, me, tag, r, d):
    res = env.res[r]
    if not res.try_acquire():
        return False
    res.release_at(sim.now + d)
    return True


def _join(sim, env, me, tag, j):
    return (yield from env.procs[j % len(env.procs)].join())


@_instant
def _start(sim, env, me, tag, d, k):
    def task():
        yield d
        env.trace.append((sim.now, "task", tag, None))
        ev = env.events[k]
        if not ev.triggered:
            ev.trigger(tag)
        yield 1
        env.trace.append((sim.now, "task", tag, "end"))
    sim.start(task())


def _self_interrupt(sim, env, me, tag, k, d):
    me.interrupt("self")
    return (yield (env.events[k] if d == 0 else d))


def _self_kill(sim, env, me, tag, k):
    me.kill("self")
    return (yield env.events[k])


OPS = {
    "sleep": _sleep, "wait": _wait, "trigger": _trigger, "call": _call,
    "interrupt": _interrupt, "kill": _kill, "shield": _shield,
    "suspend": _suspend, "timed_wait": _timed_wait, "hold": _hold,
    "try_hold": _try_hold, "timed_hold": _timed_hold,
    "release_at": _release_at, "join": _join, "start": _start,
    "self_interrupt": _self_interrupt, "self_kill": _self_kill,
}


def _body(sim, env, name, ops):
    me = sim.current
    for i, (kind, *args) in enumerate(ops):
        try:
            value = yield from OPS[kind](sim, env, me, f"{name}.{i}", *args)
        except Interrupt as exc:
            cause = exc.cause
            value = ("int", cause if isinstance(cause, str)
                     else type(cause).__name__)
        env.trace.append((sim.now, name, i, value))
    return name


# -- program generation ------------------------------------------------------

#: -1 included: a negative delay must raise, never queue into the past
_delay = st.integers(-1, 6)
_ev = st.integers(0, NUM_EVENTS - 1)
_proc = st.integers(0, 11)
_res = st.integers(0, len(CAPACITIES) - 1)
_timeout = st.integers(1, 8)

OP = st.one_of(
    st.tuples(st.just("sleep"), _delay),
    st.tuples(st.just("wait"), _ev),
    st.tuples(st.just("trigger"), _ev),
    st.tuples(st.just("call"), _delay, st.none() | _ev),
    st.tuples(st.just("interrupt"), _proc),
    st.tuples(st.just("kill"), _proc),
    st.tuples(st.just("shield"), _delay),
    st.tuples(st.just("suspend"), _proc, st.integers(1, 8)),
    st.tuples(st.just("timed_wait"), _ev, _timeout),
    st.tuples(st.just("hold"), _res, _delay),
    st.tuples(st.just("try_hold"), _res, _delay),
    st.tuples(st.just("timed_hold"), _res, _timeout, _delay),
    st.tuples(st.just("release_at"), _res, _delay),
    st.tuples(st.just("join"), _proc),
    st.tuples(st.just("start"), _delay, _ev),
    st.tuples(st.just("self_interrupt"), _ev, st.integers(0, 3)),
    st.tuples(st.just("self_kill"), _ev),
)

PROGRAM = st.fixed_dictionaries({
    "procs": st.lists(st.tuples(st.booleans(), st.lists(OP, max_size=6)),
                      min_size=1, max_size=12),
    "sample_every": st.none() | st.integers(1, 7),
    "max_events": st.none() | st.integers(1, 80),
    "until": st.none() | st.integers(0, 30),
    "seed": st.integers(0, 2**16),
})


def execute(kit, prog, policy_seed=None):
    """Run ``prog`` on one scheduler; return everything observable."""
    sim = kit.Simulator(max_events=prog["max_events"])
    trace = []
    env = SimpleNamespace(
        trace=trace, procs=[],
        events=[sim.event(f"e{k}") for k in range(NUM_EVENTS)],
        res=[kit.Resource(sim, c) for c in CAPACITIES])
    policy = None
    if policy_seed is not None:
        policy = sim.policy = RandomWalkPolicy(policy_seed, p_lane=0.5)
    if prog["sample_every"] is not None:
        sim.set_sample_hook(prog["sample_every"],
                            lambda c: trace.append((c, "sample", 0, None)))
    for idx, (daemon, ops) in enumerate(prog["procs"]):
        env.procs.append(sim.spawn(_body(sim, env, f"p{idx}", ops),
                                   f"p{idx}", daemon=daemon))
    outcome = "ok"
    try:
        if prog["until"] is not None:
            sim.run(until=prog["until"])
            trace.append((sim.now, "until", 0, None))
        sim.run()
    except DeadlockError as exc:
        outcome = ("deadlock", sorted(p.name for p in exc.blocked))
    except Exception as exc:  # a program error must match too
        outcome = (type(exc).__name__, _ADDRESS.sub("<object>", str(exc)))
    return {
        "trace": trace, "now": sim.now, "events": sim.events_processed,
        "outcome": outcome,
        "fates": [(p.alive, p.killed, p.result) for p in env.procs],
        "held": [r.in_use for r in env.res],
        "policy": None if policy is None else policy.trace,
    }


def check(prog):
    for seed in (None, prog["seed"]):
        got = execute(ENGINE, prog, seed)
        want = execute(ORACLE, prog, seed)
        assert got == want, f"policy seed {seed}"


@given(PROGRAM)
@settings(deadline=None, max_examples=300,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.data_too_large])
def test_engine_matches_reference_scheduler(prog):
    check(prog)


# -- pinned cases: four engine faults the differential test found, each a
# second step of one process (fixed in ``_engine_core``), and the
# all-dead bucket rule ---------------------------------------------------------


def _pinned(procs, **kw):
    prog = {"procs": procs, "sample_every": None, "max_events": None,
            "until": None, "seed": 1}
    prog.update(kw)
    check(prog)


def test_interrupted_sleeper_steps_once_when_it_sleeps_again():
    """An interrupt cancels a bucketed sleep; the sleep taken after the
    interrupt must not revive the cancelled entry (a double step)."""
    _pinned([(False, [("sleep", 6), ("sleep", 5), ("sleep", 5)]),
             (False, [("sleep", 1), ("interrupt", 0)])])


def test_interrupted_lane_wakeup_stays_dead_under_a_policy():
    """A policy may permute the cancelled lane wakeup behind the throw;
    it must still be dropped, not step the process a second time."""
    idle = [(False, [])] * 6
    _pinned(idle + [(False, [("sleep", 0)]),
                    (False, [("interrupt", 8), ("sleep", 0)]),
                    (False, [("sleep", 0)] * 3)], seed=474)


def test_self_interrupted_park_leaves_the_event():
    """A process that interrupts itself and then yields an event gets
    the interrupt, and a later trigger of that event wakes nothing."""
    _pinned([(False, [("self_interrupt", 0, 0), ("sleep", 6)]),
             (False, [("sleep", 3), ("trigger", 0)])])


def test_self_killed_park_never_steps_again():
    _pinned([(False, [("self_kill", 0), ("sleep", 1)]),
             (False, [("sleep", 3), ("trigger", 0)])])


def test_all_dead_bucket_moves_neither_clock_nor_sample():
    _pinned([(False, [("sleep", 6)]),
             (False, [("sleep", 2), ("kill", 0)])], sample_every=4)


def test_timed_out_waiter_hands_on_a_slot_granted_in_its_timeout_cycle():
    """p1's release at cycle 1 grants the slot to p0, whose timeout
    interrupt is already queued for that cycle: p0 times out and hands
    the slot on, so nothing raises and nothing stays held."""
    procs = [(False, [("sleep", 0), ("timed_hold", 0, 1, 0)]),
             (False, [("release_at", 0, 1), ("timed_hold", 0, 1, 0)])]
    _pinned(procs)
    got = execute(ENGINE, {"procs": procs, "sample_every": None,
                           "max_events": None, "until": None})
    assert got["outcome"] == "ok"
    assert got["trace"][-1] == (1, "p0", 1, False)
    assert got["held"] == [0, 0]
