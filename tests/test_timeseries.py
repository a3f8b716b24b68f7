"""Tests for the continuous-telemetry layer: rings, sampler, engine hook."""

import pytest

import repro.obs as obs
from repro.machine import Machine, tile_gx
from repro.obs.timeseries import Sampler, TimeSeries
from repro.sim.engine import Simulator
from repro.workload import WorkloadSpec
from repro.workload.scenarios import run_counter_benchmark


# -- TimeSeries ring math --------------------------------------------------

def test_gauge_bucket_mean_and_points():
    ts = TimeSeries("g", kind="gauge", buckets=4, bucket_cycles=10)
    ts.record(0, 2.0)
    ts.record(5, 4.0)   # same bucket
    ts.record(10, 10.0)
    assert ts.points() == [(0, 3.0), (10, 10.0)]
    assert ts.mean() == pytest.approx(16 / 3)
    assert ts.peak() == 10.0
    assert ts.samples == 3


def test_counter_points_keep_empty_buckets_as_zero():
    ts = TimeSeries("c", kind="counter", buckets=8, bucket_cycles=10)
    ts.record(0, 5.0)
    ts.record(25, 7.0)  # bucket 2; bucket 1 had no increments
    assert ts.points() == [(0, 5.0), (10, 0.0), (20, 7.0)]
    assert ts.total() == 12.0


def test_downsample_on_wrap_doubles_width_and_preserves_aggregates():
    ts = TimeSeries("g", kind="gauge", buckets=4, bucket_cycles=1)
    for c in range(16):
        ts.record(c, float(c))
    # 16 samples through a 4-bucket ring: two wraps, width 1 -> 4
    assert ts.wraps == 2
    assert ts.bucket_cycles == 4
    assert len(ts.sums) <= 4
    # aggregates are exact no matter how often the ring wrapped
    assert ts.total() == sum(range(16))
    assert ts.mean() == pytest.approx(sum(range(16)) / 16)
    assert ts.peak() == 15.0
    assert ts.last_value == 15.0
    assert ts.samples == 16


def test_memory_stays_bounded_over_long_runs():
    ts = TimeSeries("g", kind="gauge", buckets=16, bucket_cycles=1)
    for c in range(100_000):
        ts.record(c, 1.0)
    assert len(ts.sums) <= 16
    assert len(ts.counts) <= 16
    assert len(ts.maxes) <= 16
    assert ts.samples == 100_000
    assert ts.total() == 100_000.0


def test_downsample_empty_bucket_does_not_poison_max():
    ts = TimeSeries("g", kind="gauge", buckets=4, bucket_cycles=10)
    ts.record(0, -5.0)       # bucket 0
    # bucket 1 empty; force a wrap so (0, 1) merge
    ts.record(45, -7.0)
    assert ts.peak() == -5.0  # empty bucket's 0.0 placeholder not counted


def test_timeseries_validation():
    with pytest.raises(ValueError):
        TimeSeries("x", kind="rate")
    with pytest.raises(ValueError):
        TimeSeries("x", buckets=1)
    with pytest.raises(ValueError):
        TimeSeries("x", bucket_cycles=0)


def test_to_dict_tail_keeps_last_points():
    ts = TimeSeries("g", kind="gauge", buckets=64, bucket_cycles=1)
    for c in range(10):
        ts.record(c, float(c))
    d = ts.to_dict(tail=3)
    assert d["points"] == [[7, 7.0], [8, 8.0], [9, 9.0]]
    assert d["samples"] == 10 and d["peak"] == 9.0


# -- Sampler ---------------------------------------------------------------

def test_counter_source_baselined_at_registration():
    sampler = Sampler(None, every=10, buckets=8)
    state = {"v": 100.0}
    sampler.register("c", lambda: state["v"], kind="counter")
    # first tick reports the delta since registration, not the total
    state["v"] = 103.0
    sampler.on_tick(10)
    assert sampler.series["c"].points() == [(0, 0.0), (10, 3.0)]
    state["v"] = 110.0
    sampler.on_tick(20)
    assert sampler.series["c"].total() == 10.0


def test_register_duplicate_requires_replace():
    sampler = Sampler(None, every=10)
    sampler.register("g", lambda: 1.0)
    with pytest.raises(ValueError, match="already registered"):
        sampler.register("g", lambda: 2.0)
    sampler.register("g", lambda: 2.0, replace=True)
    sampler.on_tick(10)
    assert sampler.series["g"].last_value == 2.0


def test_register_replace_discards_old_series():
    sampler = Sampler(None, every=10)
    sampler.register("g", lambda: 1.0)
    sampler.on_tick(10)
    old = sampler.series["g"]
    assert old.last_value == 1.0
    new = sampler.register("g", lambda: 2.0, replace=True)
    assert new is not old
    assert sampler.series["g"] is new
    assert new.total() == 0.0  # history did not leak across replace
    sampler.on_tick(20)
    assert new.last_value == 2.0


def test_remove_source_keeps_history_and_reports_removal():
    sampler = Sampler(None, every=10)
    sampler.register("g", lambda: 5.0)
    sampler.on_tick(10)
    assert sampler.remove_source("g") is True
    # the recorded series survives for summaries and dashboards ...
    assert sampler.series["g"].last_value == 5.0
    assert "g" in sampler.dump()["series"]
    # ... but future ticks stop reading the source
    before = sampler.series["g"].points()
    sampler.on_tick(20)
    assert sampler.series["g"].points() == before
    # removing again, or a never-registered name, is a documented no-op
    assert sampler.remove_source("g") is False
    assert sampler.remove_source("never") is False


def test_remove_source_is_a_noop_for_adopted_series():
    sampler = Sampler(None, every=10)
    ts = sampler.adopt(TimeSeries("ext", kind="gauge", buckets=8,
                                  bucket_cycles=10))
    assert sampler.remove_source("ext") is False
    assert sampler.series["ext"] is ts
    with pytest.raises(ValueError, match="already registered"):
        sampler.adopt(TimeSeries("ext", kind="gauge", buckets=8,
                                 bucket_cycles=10))


def test_sampler_subscribers_run_after_sources():
    sampler = Sampler(None, every=10)
    sampler.register("g", lambda: 7.0)
    seen = []
    sampler.subscribe(
        lambda now: seen.append((now, sampler.series["g"].last_value)))
    sampler.on_tick(10)
    assert seen == [(10, 7.0)]


# -- engine sample hook ----------------------------------------------------

def _ticker(sim, period, stop):
    t = 0
    while sim.now < stop:
        yield period
        t += 1


def test_engine_hook_fires_on_cadence():
    sim = Simulator()
    ticks = []
    sim.set_sample_hook(100, ticks.append)
    sim.spawn(_ticker(sim, 30, 1000), name="t")
    sim.run()
    # fires at the first event at-or-past each multiple of 100
    assert ticks
    assert all(t >= 100 for t in ticks)
    assert ticks == sorted(ticks)
    # cadence: the due points stay aligned to the 100-cycle grid, so
    # consecutive ticks always land in distinct grid windows
    for a, b in zip(ticks, ticks[1:]):
        assert b // 100 > a // 100


def test_engine_hook_collapses_idle_gaps_to_one_tick():
    sim = Simulator()
    ticks = []
    sim.set_sample_hook(10, ticks.append)

    def sleeper():
        yield 5
        yield 1000   # long idle gap: no events between 5 and 1005
        yield 5

    sim.spawn(sleeper(), name="s")
    sim.run()
    # one tick when the clock jumps past many due points, not 100 ticks
    assert len([t for t in ticks if t <= 1005]) <= 2


def test_engine_hook_fires_at_horizon_park():
    sim = Simulator()
    ticks = []
    sim.set_sample_hook(10, ticks.append)
    sim.spawn(_ticker(sim, 3, 20), name="t")
    sim.run(until=500)   # horizon park well past the last event
    assert sim.now == 500
    assert ticks[-1] == 500


def test_clear_sample_hook():
    sim = Simulator()
    ticks = []
    sim.set_sample_hook(10, ticks.append)
    sim.clear_sample_hook()
    sim.spawn(_ticker(sim, 5, 100), name="t")
    sim.run()
    assert ticks == []
    with pytest.raises(ValueError):
        sim.set_sample_hook(0, ticks.append)


# -- sampling is a pure observer -------------------------------------------

def test_sampling_does_not_change_simulated_results():
    spec = WorkloadSpec(warmup_cycles=5_000, measure_cycles=30_000)
    with obs.observed() as plain_session:
        plain = run_counter_benchmark("mp-server", 6, spec=spec)
    with obs.observed(timeseries=True, sample_every=256) as session:
        sampled = run_counter_benchmark("mp-server", 6, spec=spec)
    assert sampled.ops == plain.ops
    assert sampled.per_thread_ops == plain.per_thread_ops
    assert sampled.latency_samples == plain.latency_samples
    # and the obs.* extras (fingerprinted) are identical too
    assert sampled.extra == plain.extra
    assert plain_session.records()[0].timeseries is None
    (rec,) = session.records()
    tel = rec.timeseries
    assert tel is not None and tel["ticks"] > 0
    # the ops completed after the final sample tick are not in the
    # series, so the total trails the exact count by < one window
    assert 0 < tel["series"]["goodput"].total() <= sampled.ops
    assert tel["series"]["core.busy"].samples == tel["ticks"]


def test_figure_fingerprint_identical_with_sampling(monkeypatch):
    # fingerprints must not move when sampling rides along -- the
    # sampled series live in the machine's record, not the result
    from repro.analysis.series import FigureData

    spec = WorkloadSpec(warmup_cycles=2_000, measure_cycles=10_000)

    def fig_with(options):
        fig = FigureData("t", "t", "x", "y")
        with obs.observed(**options):
            fig.add_point("s", 4.0,
                          run_counter_benchmark("mp-server", 4, spec=spec))
        return fig.fingerprint()

    assert fig_with({}) == fig_with(
        dict(timeseries=True, sample_every=128, flight=True))


def test_machine_sources_cover_subsystems():
    with obs.observed(timeseries=True) as session:
        m = Machine(tile_gx())
    names = set(session.machines[0].sampler.series)
    assert {"core.busy", "core.stall", "core.wait", "cache.misses",
            "udn.occupancy", "udn.backpressure"} <= names
    assert m.udn is not None
