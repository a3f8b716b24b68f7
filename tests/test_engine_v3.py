"""Engine v3 acceptance tests: batched advancement edge cases and
determinism proofs.

The v3 rewrite (``repro.sim._engine_core``) batches cycle advancement:
the clock jumps to the next occupied cycle in one step and drains the
whole cycle in one bucket pass.  These tests pin the places where the
jump interacts with other due-points -- run horizons, the telemetry
sample hook, and timeout deadlines -- and prove the rewrite changed
*nothing* observable: the pre-rewrite golden fingerprint still holds
with observability sampling layered on, and schedule-exploration traces
recorded on the PR4 engine replay bit-identically on v3.
"""

import json
import os

import pytest

from repro.explore import (RandomWalkPolicy, ReplayPolicy, run_scenario,
                           scenario_by_id)
from repro.sim._engine_core import _Task
from repro.sim.engine import IS_COMPILED, Interrupt, Simulator, WaitTimer
from repro.sim.resources import Resource

# -- horizon / idle-gap edge cases -------------------------------------------


def test_run_until_inside_collapsed_idle_gap():
    """run(until) parks the clock mid-gap; later runs resume exactly."""
    sim = Simulator()
    fired = []

    def worker():
        yield 1000
        fired.append(sim.now)

    sim.spawn(worker())
    sim.run(until=400)
    assert sim.now == 400 and fired == []
    sim.run(until=999)
    assert sim.now == 999 and fired == []
    sim.run()
    assert fired == [1000] and sim.now == 1000


def test_sample_hook_due_exactly_at_jump_target():
    """A jump landing exactly on a sample boundary fires one tick there."""
    sim = Simulator()
    ticks = []

    def worker():
        yield 100
        yield 100

    sim.spawn(worker())
    sim.set_sample_hook(100, ticks.append)
    sim.run()
    assert ticks == [100, 200]


def test_sample_hook_collapses_skipped_boundaries_to_one_tick():
    """A jump across several boundaries samples once, at the jump target."""
    sim = Simulator()
    ticks = []

    def worker():
        yield 300   # crosses boundaries 100, 200, 300: one tick at 300
        yield 50    # 350: no boundary crossed
        yield 250   # 600 crosses 400, 500, 600: one tick at 600

    sim.spawn(worker())
    sim.set_sample_hook(100, ticks.append)
    sim.run()
    assert ticks == [300, 600]


def test_sample_hook_fires_at_horizon_inside_gap():
    """Stopping mid-gap still reconciles a due sample at the horizon."""
    sim = Simulator()
    ticks = []

    def worker():
        yield 1000

    sim.spawn(worker())
    sim.set_sample_hook(100, ticks.append)
    sim.run(until=450)
    assert sim.now == 450 and ticks == [450]
    sim.run()
    assert ticks == [450, 1000]


def test_wait_timer_deadline_inside_skipped_gap():
    """A timeout deadline is its own due-point: the jump cannot skip it."""
    sim = Simulator()
    outcome = []

    def sleeper():
        yield 5000

    def waiter():
        ev = sim.event("never")
        timer = WaitTimer(sim, sim.current, 300)
        try:
            yield ev
        except Interrupt as exc:
            outcome.append((sim.now, exc.cause is timer))
        finally:
            timer.disarm()

    sim.spawn(sleeper())
    sim.spawn(waiter())
    sim.run()
    assert outcome == [(300, True)]
    assert sim.now == 5000


def test_udn_receive_timeout_deadline_inside_skipped_gap():
    """UDN receive timeout expires on time while the rest of the
    machine sleeps far past it."""
    from repro.machine import Machine, tile_gx
    from repro.udn import ReceiveTimeout

    m = Machine(tile_gx())
    t0 = m.thread(0)
    t1 = m.thread(1)

    def receiver(ctx):
        try:
            yield from ctx.receive(1, timeout=200)
        except ReceiveTimeout as exc:
            return ("timeout", m.now, exc.waited)

    def sleeper(ctx):
        yield 9000

    p = m.spawn(t0, receiver(t0))
    m.spawn(t1, sleeper(t1))
    m.run()
    assert p.result == ("timeout", 200, 200)


# -- Resource.acquire_timeout (admission deadlines) --------------------------


def test_resource_acquire_timeout_expires_inside_idle_gap():
    sim = Simulator()
    res = Resource(sim)
    got = []

    def holder():
        yield from res.acquire()
        yield 10_000
        res.release()

    def contender():
        ok = yield from res.acquire_timeout(250)
        got.append((sim.now, ok))

    sim.spawn(holder())
    sim.spawn(contender())
    sim.run()
    assert got == [(250, False)]
    assert res.queue_length == 0  # the timed-out request was withdrawn
    assert sim.now == 10_000


def test_resource_acquire_timeout_grant_in_deadline_cycle_wins():
    """Same deterministic rule as UDN timeouts: arrival beats expiry."""
    sim = Simulator()
    res = Resource(sim)
    got = []

    def holder():
        yield from res.acquire()
        yield 300
        res.release()

    def contender():
        ok = yield from res.acquire_timeout(300)
        got.append((sim.now, ok))
        res.release()

    sim.spawn(holder())
    sim.spawn(contender())
    sim.run()
    assert got == [(300, True)]
    assert res.in_use == 0


def test_resource_acquire_timeout_fast_path_and_validation():
    import pytest

    sim = Simulator()
    res = Resource(sim)
    got = []

    def proc():
        ok = yield from res.acquire_timeout(10)
        got.append(ok)
        res.release()

    sim.spawn(proc())
    sim.run()
    assert got == [True] and res.in_use == 0

    def bad():
        yield from res.acquire_timeout(0)

    sim2 = Simulator()
    res2 = Resource(sim2)
    sim2.spawn(bad())
    with pytest.raises(ValueError, match="timeout"):
        sim2.run()


# -- determinism proofs ------------------------------------------------------


def test_golden_fingerprint_unchanged_by_sampling():
    """Time-series sampling hooks the batched clock; it must not move
    one simulated number.  Observability itself (bus + counters) adds
    deterministic per-op register fields to the figure, so the sampling
    proof compares obs-with-sampling against obs-without-sampling:
    identical fingerprints over *every* simulated field.  (Sampling and
    obs both fully off is pinned separately against the pre-rewrite
    golden by tests/test_parallel.py.)"""
    import repro.obs as obs_mod
    from tests.test_parallel import _golden_figure

    with obs_mod.observed():
        base = _golden_figure()
    with obs_mod.observed(timeseries=True, sample_every=512):
        sampled = _golden_figure()
    assert sampled.fingerprint() == base.fingerprint()


def test_pre_v3_explore_traces_replay_identically():
    """Schedule traces recorded on the PR4 engine are still the
    schedule: replaying them on v3 reproduces every run exactly --
    verdict, event count, linearization history and decision trace."""
    path = os.path.join(os.path.dirname(__file__), "data",
                        "explore_pre_v3_replay.json")
    with open(path) as f:
        doc = json.load(f)
    assert doc["format"] == "pre-v3-replay-fixture"
    assert doc["runs"], "empty fixture"
    for rec in doc["runs"]:
        scn = scenario_by_id(rec["scenario"])
        out = run_scenario(scn, ReplayPolicy(
            [(k, v) for k, v in rec["trace"]]))
        assert out.kind == rec["kind"], rec["scenario"]
        assert out.events == rec["events"], rec["scenario"]
        assert out.forced_choices == rec["forced_choices"], rec["scenario"]
        # JSON round-trip normalizes tuples to lists on both sides
        assert json.loads(json.dumps(out.history)) == rec["history"]
        assert json.loads(json.dumps(out.trace)) == rec["trace"]


def test_is_compiled_flag_reflects_module_form():
    from repro.sim import _engine_core

    assert isinstance(IS_COMPILED, bool)
    assert IS_COMPILED == (not _engine_core.__file__.endswith(".py"))
    # under plain CPython (the tier-1 environment) the core is source
    if _engine_core.__file__.endswith(".py"):
        assert IS_COMPILED is False


# -- background tasks and self-releasing resources ----------------------------


def _same_cycle_program(launcher, policy=None):
    """A program whose helpers all step in shared cycles: each of four
    threads launches three helpers (with ``sim.spawn`` or ``sim.start``,
    as ``launcher`` names) that sleep, park on one event and queue on
    one resource.  Returns the ``(cycle, who, step)`` trace and the
    simulator."""
    sim = Simulator()
    sim.policy = policy
    launch = getattr(sim, launcher)
    gate = sim.event()
    res = Resource(sim)
    trace = []

    def helper(who, delays):
        for step, d in enumerate(delays):
            trace.append((sim.now, who, step))
            yield d
        got = yield gate
        trace.append((sim.now, who, got))
        yield from res.acquire()
        trace.append((sim.now, who, "held"))
        yield 0
        res.release()

    def thread(i):
        for k in range(3):
            trace.append((sim.now, f"t{i}", k))
            launch(helper(f"h{i}.{k}", (0, i % 2, 0, 1)))
            yield k % 2
        if i == 0:
            yield 2
            gate.trigger("open")

    for i in range(4):
        sim.spawn(thread(i), name=f"t{i}")
    sim.run()
    return trace, sim


def test_start_leaves_the_same_cycle_trace_unchanged():
    spawned, s1 = _same_cycle_program("spawn")
    started, s2 = _same_cycle_program("start")
    assert started == spawned
    assert s2.now == s1.now and s2.events_processed == s1.events_processed
    # every helper reached the resource, in the FIFO order it queued
    opened = [w for _t, w, s in started if s == "open"]
    assert [w for _t, w, s in started if s == "held"] == opened
    assert len(opened) == 12


def test_start_is_permuted_like_spawn_under_random_walk():
    plain, _ = _same_cycle_program("start")
    spawned, s1 = _same_cycle_program("spawn", RandomWalkPolicy(7, p_lane=1.0))
    started, s2 = _same_cycle_program("start", RandomWalkPolicy(7, p_lane=1.0))
    assert s1.policy.forced_choices > 0
    assert spawned != plain  # the policy did reorder something
    assert started == spawned
    assert s2.policy.trace == s1.policy.trace


def test_task_waits_on_a_delay_an_event_and_a_resource_fifo():
    sim = Simulator()
    ev = sim.event()
    res = Resource(sim)
    log = []

    def task(who):
        yield 5
        log.append((sim.now, who, "slept"))
        got = yield ev
        log.append((sim.now, who, got))
        yield from res.acquire()
        log.append((sim.now, who, "held"))
        yield 10
        res.release()

    def trigger():
        yield 20
        ev.trigger("go")

    for who in "abc":
        sim.start(task(who))
    sim.spawn(trigger())
    sim.run()
    assert log == [(5, "a", "slept"), (5, "b", "slept"), (5, "c", "slept"),
                   (20, "a", "go"), (20, "a", "held"), (20, "b", "go"),
                   (20, "c", "go"), (30, "b", "held"), (40, "c", "held")]
    assert sim.now == 50 and res.in_use == 0
    assert res.total_wait_cycles == 10 + 20


def test_finished_task_is_not_a_live_process():
    sim = Simulator()
    done = []

    def task():
        yield 10
        done.append(sim.now)

    def thread():
        yield 30

    sim.start(task())
    p = sim.spawn(thread(), name="thread")
    sim.run(until=5)
    assert sim.live_processes() == [p]  # a task is never registered
    sim.run(until=20)
    assert done == [10] and sim.live_processes() == [p]
    sim.run()
    assert sim.live_processes() == []


def _release_trace(how, policy=None):
    """Waiters on one resource whose holders hand it on with ``how``:
    ``release_at`` or ``call_at(w, res.release)``, at a later cycle
    (a bucket entry) or at the current cycle (a lane entry among the
    same-cycle steps of two spinning processes)."""
    sim = Simulator()
    sim.policy = policy
    res = Resource(sim)
    trace = []

    def release(when):
        if how == "release_at":
            res.release_at(when)
        else:
            sim.call_at(when, res.release)

    def holder():
        yield from res.acquire()
        trace.append((sim.now, "holder", "held"))
        release(sim.now + 3)
        yield 3
        yield from res.acquire()
        trace.append((sim.now, "holder", "again"))
        release(sim.now)

    def waiter(i):
        yield i % 2
        trace.append((sim.now, f"w{i}", "waiting"))
        yield from res.acquire()
        trace.append((sim.now, f"w{i}", "held"))
        yield 0
        trace.append((sim.now, f"w{i}", "step"))
        release(sim.now + i % 2)  # even: this cycle; odd: the next one

    def spinner(j):
        for k in range(40):
            trace.append((sim.now, f"s{j}", k))
            yield 1 if k % 3 == 2 else 0

    sim.spawn(holder(), name="holder")
    for i in range(5):
        sim.spawn(waiter(i), name=f"w{i}")
    for j in range(2):
        sim.spawn(spinner(j), name=f"s{j}")
    sim.run()
    return trace, sim


def test_release_at_grants_where_a_release_callback_would():
    via_callback, s1 = _release_trace("call_at")
    via_entry, s2 = _release_trace("release_at")
    assert via_entry == via_callback
    assert s2.events_processed == s1.events_processed and s2.now == s1.now
    assert [w for _t, w, s in via_entry if s == "held"] == [
        "holder", "w0", "w2", "w4", "w1", "w3"]


def test_release_at_stays_pinned_under_a_policy():
    assert Resource.pinned and not _Task.pinned
    via_callback, s1 = _release_trace("call_at",
                                      RandomWalkPolicy(3, p_lane=1.0))
    via_entry, s2 = _release_trace("release_at",
                                   RandomWalkPolicy(3, p_lane=1.0))
    assert s1.policy.forced_choices > 0
    assert via_entry == via_callback
    assert s2.policy.trace == s1.policy.trace


def test_release_at_rejects_the_past():
    sim = Simulator()
    res = Resource(sim)
    sim.run(until=10)
    with pytest.raises(ValueError, match="past"):
        res.release_at(9)
