"""Tests for the schedule-exploration harness (repro.explore): seam
neutrality with no/null policy, trace recording and replay, policy
determinism, the search loop, tag filtering, and repro bundles."""

import pytest

from repro.explore import (
    MODES,
    SMALL_MATRIX,
    BoundedPreemptionPolicy,
    PCTPolicy,
    RandomWalkPolicy,
    ReplayPolicy,
    ReproBundle,
    SchedulePolicy,
    bundle_from_finding,
    explore,
    load_bundle,
    matrix,
    run_scenario,
    save_bundle,
    scenario_by_id,
)
from repro.explore.policy import _seeded_shuffle

MP_COUNTER = scenario_by_id("mp-server/counter")
HYB_COUNTER = scenario_by_id("HybComb/counter")
FT_CRASH = scenario_by_id("mp-server-ft/counter@crash")


# -- seam neutrality ----------------------------------------------------------

def test_null_policy_is_bit_identical_to_no_policy():
    """Installing the base SchedulePolicy (all choices 0) must not
    change the execution at all: same history, same event count."""
    base = run_scenario(MP_COUNTER)
    nulled = run_scenario(MP_COUNTER, SchedulePolicy())
    assert base.ok and nulled.ok
    assert nulled.history == base.history
    assert nulled.forced_choices == 0
    # the nulled run *records* decisions (trace non-empty) but the run
    # itself advances through the identical schedule
    assert len(nulled.trace) > 0
    assert all(v == 0 for _k, v in nulled.trace)


def test_default_matrix_passes_under_default_schedule():
    for scn in matrix("small"):
        out = run_scenario(scn)
        assert out.ok, f"{scn.sid} failed under the default schedule: {out.detail}"


# -- policy unit behaviour ----------------------------------------------------

def test_seeded_shuffle_is_deterministic_and_seed_sensitive():
    a = list(range(10))
    b = list(range(10))
    _seeded_shuffle(a, 42)
    _seeded_shuffle(b, 42)
    assert a == b
    assert sorted(a) == list(range(10))
    c = list(range(10))
    _seeded_shuffle(c, 43)
    assert c != a  # different seed, different permutation


class _FakeEntry:
    """Stand-in for an engine lane entry: only ``pinned`` matters here."""

    def __init__(self, i, pinned):
        self.i = i
        self.pinned = pinned

    def __repr__(self):
        return f"e{self.i}{'*' if self.pinned else ''}"


def test_reorder_lane_pins_callbacks_in_place():
    """Lane permutation must only move process resumes; model-internal
    callbacks (``pinned`` entries) keep their slots."""
    entries = [_FakeEntry(i, pinned)
               for i, pinned in enumerate(
                   [False, True, False, True, False, False])]
    pol = RandomWalkPolicy(seed=7, p_lane=1.0, p_udn=0, p_preempt=0)
    out = pol.reorder_lane(list(entries), now=0)
    assert sorted(out, key=id) == sorted(entries, key=id)  # a permutation
    for i, e in enumerate(entries):
        if e.pinned:
            assert out[i] is e, "a pinned (callback) entry moved"
    assert out != entries, "seed 7 with p_lane=1 must actually permute"
    assert pol.trace and pol.trace[0][0] == "L" and pol.trace[0][1] != 0


def test_udn_delivery_entries_stay_pinned_under_lane_shuffles():
    """A UDN message is one scheduler entry from send to arrival; lane
    shuffles may reorder process resumes around it but never move it.
    With a zero-cost NoC, same-core messages arrive in the cycle they
    are sent, so their entries share the lane with the senders'
    ``yield 0`` resumes."""
    from repro.machine import Machine, tile_gx
    from repro.udn.udn import _Delivery

    seen = {"deliveries": 0, "moved": 0}

    class Watching(RandomWalkPolicy):
        def reorder_lane(self, entries, now):
            out = super().reorder_lane(entries, now)
            for i, e in enumerate(entries):
                if isinstance(e, _Delivery):
                    seen["deliveries"] += 1
                    assert out[i] is e, "a UDN delivery entry moved"
                elif out[i] is not e:
                    seen["moved"] += 1
            return out

    m = Machine(tile_gx(noc_base=0))
    ring = [m.thread(tid, core_id=0, demux=tid) for tid in range(4)]
    rounds = 20

    def prog(ctx):
        got = []
        for i in range(rounds):
            yield from ctx.send((ctx.tid + 1) % 4, [i])
            yield 0
            (v,) = yield from ctx.receive(1)
            got.append(v)
        return got

    procs = [m.spawn(ctx, prog(ctx)) for ctx in ring]
    m.sim.policy = Watching(seed=5, p_lane=1.0, p_udn=0, p_preempt=0)
    m.run()
    assert all(p.result == list(range(rounds)) for p in procs)
    assert seen["deliveries"] > 0 and seen["moved"] > 0


def test_replay_policy_per_kind_fifo_and_zero_past_end():
    pol = ReplayPolicy([("P", 5), ("U", 7), ("P", 0), ("L", 0)])
    assert pol.preempt("t", 0, 0) == 5
    assert pol.udn_delay(0, 0, 0, 1, 0) == 7
    assert pol.preempt("t", 0, 0) == 0
    assert pol.preempt("t", 0, 0) == 0  # past the end: default
    assert pol.udn_delay(0, 0, 0, 1, 0) == 0


def test_pct_policy_rejects_degenerate_ranks():
    with pytest.raises(ValueError):
        PCTPolicy(seed=1, ranks=1)


def test_random_walk_trace_replays_to_identical_outcome():
    """The recorded trace IS the schedule: replaying it reproduces the
    exact run -- history, verdict, event count."""
    out = run_scenario(HYB_COUNTER, RandomWalkPolicy(seed=12))
    assert out.forced_choices > 0, "seed 12 never deviated; pick another seed"
    rep = run_scenario(HYB_COUNTER, ReplayPolicy(out.trace))
    assert (rep.ok, rep.kind, rep.history, rep.events) == \
        (out.ok, out.kind, out.history, out.events)


def test_udn_delays_never_break_fifo():
    """p_udn=1.0 delays every message; the fabric's arrival clamp keeps
    per-stream FIFO, so a correct algorithm still linearizes."""
    pol = RandomWalkPolicy(seed=3, p_lane=0, p_udn=1.0, p_preempt=0)
    out = run_scenario(MP_COUNTER, pol)
    assert out.ok, out.detail
    assert any(k == "U" and v for k, v in out.trace)


def test_forced_preemption_is_charged_and_survivable():
    """BoundedPreemptionPolicy parks a thread mid-protocol; a correct
    algorithm must stay linearizable (and the choice must be recorded)."""
    out = run_scenario(HYB_COUNTER, BoundedPreemptionPolicy({0: 700, 5: 2500}))
    assert out.ok, out.detail
    assert out.forced_choices == 2


# -- tag filtering ------------------------------------------------------------

def test_tag_filter_protects_documented_limitations():
    """The ft-crash scenario zeroes preemption of the servers and the CS
    body; even a preempt-everything policy must then stay green."""
    pol = RandomWalkPolicy(seed=9, p_lane=0, p_udn=0, p_preempt=1.0)
    out = run_scenario(FT_CRASH, pol)
    assert out.ok, out.detail


def test_tag_filtered_trace_replays_identically():
    """The filter's own trace is authoritative: replaying it (through a
    fresh filter) reproduces the run bit-for-bit."""
    out = run_scenario(FT_CRASH, RandomWalkPolicy(seed=4))
    rep = run_scenario(FT_CRASH, ReplayPolicy(out.trace))
    assert (rep.ok, rep.kind, rep.history, rep.events) == \
        (out.ok, out.kind, out.history, out.events)


# -- the search loop ----------------------------------------------------------

def test_explore_requires_a_budget_and_known_modes():
    with pytest.raises(ValueError):
        explore([MP_COUNTER])
    with pytest.raises(ValueError):
        explore([MP_COUNTER], max_schedules=1, modes=("chaos",))


def test_explore_round_robins_modes_and_finds_nothing_on_correct_code():
    report = explore(SMALL_MATRIX[:3], max_schedules=9, seed=2,
                     modes=("random", "pct"))
    assert report.ok
    assert report.schedules_run == 9
    assert report.per_mode == {"random": 6, "pct": 3}
    assert report.scenarios == [s.sid for s in SMALL_MATRIX[:3]]


def test_systematic_mode_enumerates_single_preemptions():
    report = explore([MP_COUNTER], max_schedules=6, seed=0,
                     modes=("systematic",))
    assert report.ok
    assert report.per_mode["systematic"] == 6


# -- repro bundles ------------------------------------------------------------

def test_bundle_save_load_round_trip(tmp_path):
    out = run_scenario(HYB_COUNTER, RandomWalkPolicy(seed=12))
    from repro.machine import tile_gx
    bundle = ReproBundle(scenario=HYB_COUNTER.sid,
                         trace=list(out.trace), kind="invariant",
                         detail="synthetic", policy={"kind": "random-walk"},
                         config_fingerprint=tile_gx().fingerprint())
    path = save_bundle(bundle, str(tmp_path / "b.json"))
    back = load_bundle(path)
    assert back == bundle
    assert back.forced_choices == bundle.forced_choices


def test_bundle_refuses_foreign_fingerprint(tmp_path):
    from repro.explore import replay as replay_bundle
    bundle = ReproBundle(scenario=HYB_COUNTER.sid, trace=[], kind="invariant",
                         detail="", config_fingerprint="not-this-machine")
    with pytest.raises(ValueError, match="machine config"):
        replay_bundle(bundle)


def test_bundle_rejects_unknown_format(tmp_path):
    import json
    p = tmp_path / "bad.json"
    p.write_text(json.dumps({"format": 99}))
    with pytest.raises(ValueError, match="format"):
        load_bundle(str(p))


# -- CLI ----------------------------------------------------------------------

def test_cli_run_small_matrix_clean_exit(tmp_path, capsys):
    from repro.explore.cli import main
    rc = main(["run", "--max-schedules", "6", "--budget", "30",
               "--seed", "1", "--matrix", "small",
               "--out", str(tmp_path / "out")])
    assert rc == 0
    assert "no failing interleaving" in capsys.readouterr().out


def test_cli_selftest_finds_the_seeded_bug(capsys):
    from repro.explore.cli import main
    rc = main(["selftest", "--budget", "60", "--max-schedules", "30",
               "--seed", "0"])
    assert rc == 0
    assert "self-test passed" in capsys.readouterr().out


def test_cli_replay_reproduces_saved_bundle(tmp_path, capsys):
    from repro.explore import MUTATION_SCENARIO
    from repro.explore.cli import main
    report = explore([MUTATION_SCENARIO], max_schedules=20, seed=0,
                     stop_after=1, max_events=500_000)
    assert not report.ok
    bundle = bundle_from_finding(report.findings[0])
    path = save_bundle(bundle, str(tmp_path / "bug.json"))
    rc = main(["replay", path])
    assert rc == 0
    assert "reproduced identically twice" in capsys.readouterr().out


def test_modes_constant_matches_policy_zoo():
    assert MODES == ("random", "pct", "systematic")
