"""Microbenchmarks for the discrete-event engine hot path.

Unlike the ``test_bench_fig*`` modules these do not reproduce a paper
figure: they isolate the scheduler paths the hot-path rewrites
targeted, so engine-speed changes show up here undiluted by workload
logic.

* **spawn/resume churn** -- ``yield 0`` resumes, the dominant operation
  in every server/combining workload (~82% of scheduler pushes are
  delay-0); exercises the same-cycle fast lane.
* **event trigger fan-out** -- one producer repeatedly waking many
  waiters; exercises ``Event.trigger`` and bulk same-cycle resume.
* **small-delay timers** -- short non-zero delays; exercises the
  future-cycle path.  (A timer wheel for this path was prototyped and
  measured *slower* than heapq -- with ~82% of pushes at delay 0 the
  wheel's slot scan cost more than heapq's C-implemented push/pop ever
  did -- so this bench guards the path the wheel would have served.)
* **idle-gap jumps** -- long sparse delays; exercises engine v3's
  batched cycle advancement, which drains each distinct due cycle in
  one bucket pass and jumps the idle gap in O(1) instead of one heap
  pop per event.

The same-host baseline is the reference scheduler
``tests/engine_oracle.py``: the engine's ordering contract written as
one plain ``heapq`` of ``(cycle, seq, entry)``, with no fast lane, no
buckets and no gap jumps.  ``tests/test_engine_oracle.py`` checks v3's
order against it; here it is the yardstick for v3's speed.  The
acceptance gates compare interleaved minima so host noise hits both
engines alike: v3 must hold >= ``CHURN_BOUND`` x the oracle on churn and
>= ``IDLE_GAP_BOUND`` x on the idle-gap workload.

The bounds (``BOUNDS``) were recorded against the oracle text whose
sha256 is ``ORACLE_SHA256``, on a 2-vCPU VM; DESIGN.md §11 has the
runs.  Under each interpreter they sit between the tree's own runs and
two engine mutations: one more frame per process resume fails the churn
gate, and a heap push and pop per delayed resume (no batched drain)
fails the idle-gap gate.  Under 3.10 the frame mutation's churn runs
reach 11.6x against the tree's 12.1x, so there it can pass.  A change
to the oracle fails ``test_oracle_text_matches_recorded_bounds`` until
the bounds are re-recorded with it; the oracle is never sped up to make
a gate pass.

``test_bench_engine_record`` writes ``BENCH_engine.json`` for the
standard regression gate: the *gated* numbers (event counts, hence the
derived throughput figure) are simulated and deterministic; host engine
speed rides along in the informational host-perf fields only.
"""

import gc
import hashlib
import sys
import time

from benchmarks.conftest import run_once, write_bench_json
from repro.sim.engine import Simulator
from tests import engine_oracle

#: sha256 of ``tests/engine_oracle.py`` when the bounds below were recorded
ORACLE_SHA256 = (
    "69b4a28592717d4453a0048b5384ddf0b4d724dbb12fadbf18989f69c6e79608")
#: v3's least speed-up over the oracle, by CPython minor version, as
#: ``(churn 400 x 1,000, idle-gap 8,000 x 40)``.  The churn ratio moves
#: with the interpreter (~12.4x under 3.10 and 3.13, ~13.7x under 3.11,
#: ~17.5x under 3.12) by as much as one wrapper frame per resume moves
#: it, so each version has its own bounds; another version is held to
#: the lowest of each.
BOUNDS = {
    (3, 10): (11.0, 6.5),
    (3, 11): (12.0, 7.0),
    (3, 12): (15.5, 7.5),
    (3, 13): (11.0, 6.5),
}
CHURN_BOUND, IDLE_GAP_BOUND = BOUNDS.get(
    sys.version_info[:2], tuple(map(min, zip(*BOUNDS.values()))))


def churn(sim_cls, procs, iters, prime=False):
    """`procs` generators each doing `iters` zero-delay resumes."""
    sim = sim_cls()

    def worker():
        for _ in range(iters):
            yield 0

    for _ in range(procs):
        sim.spawn(worker())
    if not prime:
        sim.run()
    return sim


def fanout(sim_cls, waiters, rounds, prime=False):
    """One driver re-arming an event that `waiters` processes wait on."""
    sim = sim_cls()
    sim.detect_deadlock = False
    box = [None]
    stop = [False]

    def waiter():
        while not stop[0]:
            yield box[0]

    def driver():
        for i in range(rounds):
            ev = sim.event()
            old, box[0] = box[0], ev
            old.trigger(i)
            yield 0
        stop[0] = True
        box[0].trigger(-1)

    box[0] = sim.event()
    for _ in range(waiters):
        sim.spawn(waiter())
    sim.spawn(driver())
    if not prime:
        sim.run()
    return sim


def small_delays(sim_cls, procs, iters, prime=False):
    """Short non-zero delays: every resume goes through the future tier."""
    sim = sim_cls()

    def worker(d):
        for _ in range(iters):
            yield d

    for i in range(procs):
        sim.spawn(worker(1 + i % 8))
    if not prime:
        sim.run()
    return sim


def idle_gap(sim_cls, procs, iters, gap, prime=False):
    """Long sparse delays: one big batch of wakeups per distinct cycle.

    The shape engine v3's batched advancement targets: every process
    is due at the *same* future cycle, so each wave is one heap pop and
    one bucket drain for v3 but ``procs`` heap pushes and pops (through
    a ``procs``-deep heap) for the oracle, with the idle gap re-crossed
    every time.
    """
    sim = sim_cls()

    def worker():
        for _ in range(iters):
            yield gap

    for _ in range(procs):
        sim.spawn(worker())
    if not prime:
        sim.run()
    return sim


def _interleaved_best(engines, fn, *args, reps=5):
    """Per-engine best-of-`reps` ``sim.run()`` wall time, interleaved.

    Times only the run -- process spawning is setup, and its cost is
    the same for every engine, so including it would only dilute the
    hot-loop ratio under test.  The GC is paused around each timed run
    (collected beforehand): a cycle collection landing mid-run is pure
    host noise.  One warm-up run per engine, then the engines alternate
    within each repetition so slow host drift (thermal, noisy
    neighbours) hits all of them roughly equally; the minimum is each
    engine's least-perturbed run.  Also asserts every engine processed
    the same number of events -- the workloads are deterministic, so a
    count mismatch means a scheduler semantics change, not noise.
    """
    counts = {name: fn(cls, *args).events_processed
              for name, cls in engines.items()}
    assert len(set(counts.values())) == 1, counts
    best = dict.fromkeys(engines, float("inf"))
    for _ in range(reps):
        for name, cls in engines.items():
            sim = fn(cls, *args, prime=True)
            gc.collect()
            gc.disable()
            try:
                t0 = time.perf_counter()
                sim.run()
                best[name] = min(best[name], time.perf_counter() - t0)
            finally:
                gc.enable()
    return best


def _gated_ratio(engines, fn, *args, gate, rounds=3):
    """Best-of-round speedup of the first engine over the second.

    Re-measures up to ``rounds`` times, stopping at the first round
    that clears ``gate``: a genuine regression (the algorithmic edge is
    gone) fails every round, while a noisy-neighbour burst on a shared
    CI runner can only depress one.  Returns the best ratio seen.
    """
    a, b = engines
    ratio = 0.0
    for _ in range(rounds):
        best = _interleaved_best(engines, fn, *args)
        ratio = max(ratio, best[b] / best[a])
        if ratio >= gate:
            break
    return ratio


def test_bench_spawn_resume_churn(benchmark):
    sim = run_once(benchmark, churn, Simulator, 20, 20_000)
    assert sim.events_processed >= 20 * 20_000


def test_bench_event_trigger_fanout(benchmark):
    sim = run_once(benchmark, fanout, Simulator, 50, 8_000)
    assert sim.events_processed >= 50 * 8_000


def test_bench_small_delay_timers(benchmark):
    sim = run_once(benchmark, small_delays, Simulator, 50, 10_000)
    assert sim.events_processed >= 50 * 10_000


def test_bench_idle_gap_jumps(benchmark):
    sim = run_once(benchmark, idle_gap, Simulator, 8_000, 40, 500)
    assert sim.events_processed >= 8_000 * 40


def test_oracle_text_matches_recorded_bounds():
    """The gate bounds hold for one oracle text: a change to the oracle
    re-records ``CHURN_BOUND``, ``IDLE_GAP_BOUND`` and this digest."""
    with open(engine_oracle.__file__, "rb") as f:
        digest = hashlib.sha256(f.read()).hexdigest()
    assert digest == ORACLE_SHA256, (
        "tests/engine_oracle.py changed: re-record the gate bounds against "
        f"it, then set ORACLE_SHA256 = {digest!r}")


def test_engine_v3_hot_paths_vs_oracle():
    """Engine v3 vs the reference scheduler.

    Interleaved comparison across the hot-path workloads.  The churn
    gate is v3's acceptance criterion for the same-cycle path (batched
    lane sweep, table-free dispatch, zero wrapper frames per resume);
    fan-out and timers are printed for trend-watching -- gating them
    would only add noise.
    """
    engines = {"v3": Simulator, "oracle": engine_oracle.Simulator}
    ratios = {}
    print()
    for label, fn, args in (("churn", churn, (400, 1_000)),
                            ("fanout", fanout, (50, 2_000)),
                            ("timers", small_delays, (50, 4_000))):
        best = _interleaved_best(engines, fn, *args)
        ratios[label] = best["oracle"] / best["v3"]
        print(f"engine {label}: v3={best['v3'] * 1000:.1f}ms "
              f"oracle={best['oracle'] * 1000:.1f}ms "
              f"oracle/v3={ratios[label]:.2f}x")
    if ratios["churn"] < CHURN_BOUND:
        ratios["churn"] = _gated_ratio(engines, churn, 400, 1_000,
                                       gate=CHURN_BOUND, rounds=2)
    assert ratios["churn"] >= CHURN_BOUND, (
        f"engine v3 churn speedup regressed: {ratios['churn']:.2f}x < "
        f"{CHURN_BOUND}x vs the reference scheduler"
    )


def test_engine_v3_idle_gap_speedup_vs_oracle():
    """Batched cycle advancement on the idle-gap workload.

    The oracle pays one heap push and one pop (through a ``procs``-deep
    heap) per event; v3 pops one distinct cycle, drains its whole bucket
    in one pass and jumps the idle gap once.
    """
    ratio = _gated_ratio({"v3": Simulator, "oracle": engine_oracle.Simulator},
                         idle_gap, 8_000, 40, 500, gate=IDLE_GAP_BOUND)
    print(f"\nengine idle-gap speedup: {ratio:.2f}x")
    assert ratio >= IDLE_GAP_BOUND, (
        f"idle-gap speedup regressed: {ratio:.2f}x < {IDLE_GAP_BOUND}x vs "
        "the reference scheduler"
    )


def test_bench_engine_record(benchmark):
    """Write BENCH_engine.json: deterministic event counts, gated.

    Each workload contributes one point whose ``ops`` is the simulated
    event count -- bit-identical run to run, so the standard >=10%
    regression gate degenerates to an equality check on scheduler
    semantics.  Host wall time and events/sec ride along as
    informational host-perf provenance (engine speed trends in CI logs).
    """
    from repro.analysis.series import FigureData
    from repro.machine.config import tile_gx
    from repro.workload.metrics import RunResult

    clock = tile_gx().clock_mhz
    workloads = (("churn", churn, (400, 1_000)),
                 ("fanout", fanout, (50, 2_000)),
                 ("timers", small_delays, (50, 4_000)),
                 ("idle-gap", idle_gap, (8_000, 40, 500)))

    def sweep():
        fig = FigureData(figure_id="engine",
                         title="engine hot-path microbenchmarks",
                         x_label="processes", y_label="events")
        for label, fn, args in workloads:
            fn(Simulator, *args)  # warm
            t0 = time.perf_counter()
            sim = fn(Simulator, *args)
            wall = time.perf_counter() - t0
            fig.add_point(label, args[0], RunResult(
                name=label, num_threads=args[0],
                # churn never advances the clock (all delay-0); clamp so
                # the derived throughput stays finite-and-deterministic
                window_cycles=max(sim.now, 1),
                ops=sim.events_processed, clock_mhz=clock,
                host_wall_seconds=wall,
                host_events_processed=sim.events_processed))
        return fig

    fig = run_once(benchmark, sweep)
    for label, _fn, _args in workloads:
        (_x, r), = fig.series[label].points
        print(f"engine record {label}: {r.host_events_processed} events "
              f"at {r.host_events_per_sec / 1e6:.2f}M ev/s")
    write_bench_json(fig, "BENCH_engine.json")
