"""Tests for SLO monitors: burn windows, breach/recover, live wiring."""

import pytest

import repro.obs as obs
from repro.machine import Machine, tile_gx
from repro.obs import SLO
from repro.workload import WorkloadSpec
from repro.obs.bus import named
from repro.workload.scenarios import run_counter_benchmark
from tests.helpers import ev


def _machine_with(slos, **kw):
    with obs.observed(slos=slos, **kw) as session:
        m = Machine(tile_gx())
    return m, session.machines[0]


def _tick(ob, at):
    ob.machine.sim.now = at  # drive windows by hand
    ob.slo.on_tick(at)


def _end_op(ob, t, start):
    ob.bus.sim.now = t
    _t, kind, args = ev(t, "op.end", core=0, tid=0, op=0, start=start,
                        measured=True)
    ob.bus.emit(kind, *args)


# -- validation ------------------------------------------------------------

def test_slo_validation():
    with pytest.raises(ValueError):
        SLO("x", kind="availability", target=1.0)
    with pytest.raises(ValueError):
        SLO("x", kind="latency", target=1.0, quantile=0.0)
    with pytest.raises(ValueError):
        SLO("x", kind="latency", target=1.0, budget=0.0)
    with pytest.raises(ValueError):
        SLO("x", kind="latency", target=1.0, burn_threshold=0.5)
    with pytest.raises(ValueError):
        SLO("x", kind="latency", target=1.0, short_ticks=5, long_ticks=3)


def test_duplicate_slo_names_rejected():
    s = SLO("same", kind="latency", target=1.0)
    with pytest.raises(ValueError):
        _machine_with((s, s))


# -- burn-rate mechanics ---------------------------------------------------

def test_bad_window_breaches_and_publishes_bus_event():
    slo = SLO("lat", kind="latency", target=100.0, budget=0.5,
              burn_threshold=2.0, short_ticks=2, long_ticks=4)
    _m, ob = _machine_with((slo,))
    events = []
    ob.bus.subscribe(lambda t, k, f: events.append((t, k, f))
                     if k.startswith("slo.") else None)
    # one all-bad window: burn = 1 / 0.5 = 2.0 in both windows
    _end_op(ob, 200, 0)      # sojourn 200 > target
    _tick(ob, 512)
    assert ob.slo.breaches == 1
    assert len(events) == 1
    t, k, args = events[0]
    f = named(k, args)
    assert (t, k) == (512, "slo.breach")
    assert f["slo"] == "lat" and f["objective"] == "latency"
    assert f["burn_short"] == pytest.approx(2.0)
    # still breached, not re-paged, on the next bad window
    _end_op(ob, 900, 0)
    _tick(ob, 1024)
    assert ob.slo.breaches == 1 and len(events) == 1


def test_one_bad_blip_does_not_page():
    # budget 0.1, short 5: one bad window in five -> burn 2.0; long 20:
    # one bad in twenty -> burn 0.5 < 1.0 -- no alert (the long window
    # is the blip filter)
    slo = SLO("lat", kind="latency", target=100.0, budget=0.1,
              burn_threshold=2.0, short_ticks=5, long_ticks=20)
    _m, ob = _machine_with((slo,))
    t = 0
    for i in range(19):
        t += 512
        _end_op(ob, t, t - 10)     # good windows
        _tick(ob, t)
    t += 512
    _end_op(ob, t, t - 500)        # one bad blip
    _tick(ob, t)
    assert ob.slo.breaches == 0
    st = ob.slo.summary()[0]
    assert st["burn_short"] == pytest.approx(1 / 5 / 0.1)  # = 2.0
    assert st["burn_long"] == pytest.approx(1 / 20 / 0.1)  # = 0.5


def test_breach_then_recover_emits_both():
    slo = SLO("lat", kind="latency", target=100.0, budget=0.5,
              burn_threshold=1.0, short_ticks=2, long_ticks=2)
    _m, ob = _machine_with((slo,))
    kinds = []
    ob.bus.subscribe(lambda t, k, f: kinds.append(k)
                     if k.startswith("slo.") else None)
    t = 0
    for _ in range(2):              # two bad windows -> breach
        t += 512
        _end_op(ob, t, t - 500)
        _tick(ob, t)
    assert kinds == ["slo.breach"]
    assert ob.slo.summary()[0]["breached"] is True
    for _ in range(2):              # two good windows -> burn 0 -> recover
        t += 512
        _end_op(ob, t, t - 10)
        _tick(ob, t)
    assert kinds == ["slo.breach", "slo.recover"]
    assert ob.slo.summary()[0]["breached"] is False
    assert [w for _c, w, _n in ob.slo.events] == ["breach", "recover"]


def test_latency_quantile_selects_tail():
    # p50 of [10, 10, 10, 1000] is fine; p99 is not
    lo = SLO("p50", kind="latency", target=100.0, quantile=0.5,
             budget=1.0, burn_threshold=1.0, short_ticks=1, long_ticks=1)
    hi = SLO("p99", kind="latency", target=100.0, quantile=0.99,
             budget=1.0, burn_threshold=1.0, short_ticks=1, long_ticks=1)
    _m, ob = _machine_with((lo, hi))
    t = 512
    for lat in (10, 10, 10, 1000):
        _end_op(ob, t, t - lat)
    _tick(ob, t)
    by_name = {s["name"]: s for s in ob.slo.summary()}
    assert by_name["p50"]["breaches"] == 0
    assert by_name["p99"]["breaches"] == 1


def test_goodput_waits_for_first_op():
    slo = SLO("gp", kind="goodput", target=1.0, budget=1.0,
              burn_threshold=1.0, short_ticks=1, long_ticks=1)
    _m, ob = _machine_with((slo,))
    # windows close before the workload has completed anything: no data,
    # no spurious page
    _tick(ob, 512)
    _tick(ob, 1024)
    assert ob.slo.breaches == 0
    assert ob.slo.summary()[0]["last_value"] is None
    # once ops flow, an idle window becomes a genuine goodput breach
    _end_op(ob, 1500, 1490)
    _tick(ob, 1536)          # window with 1 op: fine at this clock
    _tick(ob, 2048)          # window with 0 ops: goodput 0 < floor
    assert ob.slo.breaches == 1


def test_qdepth_reads_sampled_gauge():
    slo = SLO("q", kind="qdepth", target=4.0, metric="admit.qdepth",
              budget=1.0, burn_threshold=1.0, short_ticks=1, long_ticks=1)
    _m, ob = _machine_with((slo,), timeseries=True)
    depth = {"v": 0.0}
    ob.sampler.register("admit.qdepth", lambda: depth["v"], kind="gauge",
                        replace=True)
    _tick_all = ob.sampler.on_tick
    depth["v"] = 2.0
    ob.machine.sim.now = 512
    _tick_all(512)
    assert ob.slo.breaches == 0
    depth["v"] = 9.0
    ob.machine.sim.now = 1024
    _tick_all(1024)
    assert ob.slo.breaches == 1
    # the burn series rode along for the dashboard
    assert ob.sampler.series["slo.q.burn"].samples == 2


# -- live end-to-end -------------------------------------------------------

def test_healthy_run_does_not_breach_loose_slo():
    spec = WorkloadSpec(warmup_cycles=5_000, measure_cycles=30_000)
    slos = (SLO("p99", kind="latency", target=1e9),
            SLO("gp", kind="goodput", target=1e-9))
    with obs.observed(slos=slos) as session:
        run_counter_benchmark("mp-server", 6, spec=spec)
    assert session.breaches() == 0


def test_impossible_slo_breaches_on_live_run():
    spec = WorkloadSpec(warmup_cycles=5_000, measure_cycles=30_000)
    slos = (SLO("p99", kind="latency", target=1.0),)  # nothing is <= 1 cyc
    with obs.observed(slos=slos) as session:
        run_counter_benchmark("mp-server", 6, spec=spec)
        ob = session.machines[0]
    assert session.breaches() >= 1
    assert ob.slo.summary()[0]["breaches"] >= 1
    assert any(w == "breach" for _c, w, _n in ob.slo.events)
    # the burn time series rode along for the dashboard burn chart
    assert ob.sampler.series["slo.p99.burn"].samples > 0
