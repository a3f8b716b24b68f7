"""Determinism under parallelism (repro.experiments.parallel).

The parallel sweep runner's whole contract is: same figures, faster.
These tests hold it to that -- a parallel fig3a must be bit-identical
(by FigureData fingerprint) to a serial one -- and pin the engine's
own determinism with a golden fingerprint computed before the hot-path
rewrite (the "before/after" proof: the optimized engine reproduces the
pre-optimization numbers exactly).
"""

import os
import pickle

import pytest

from repro.analysis.series import FigureData
from repro.experiments.fig3 import run_fig3a_3b
from repro.experiments.parallel import (
    PointFailure,
    point,
    resolve_jobs,
    run_sweep,
)
from repro.machine.config import tile_gx
from repro.workload.driver import WorkloadSpec
from repro.workload.scenarios import run_counter_benchmark

#: FigureData.fingerprint() of the golden sweep below, recorded from the
#: pre-optimization heapq trampoline.  The rewritten engine must keep
#: producing it bit-for-bit: same seed => same FigureData, forever.
GOLDEN_FINGERPRINT = (
    "e398afdeb28966ca1f802c01d0908308c513040c54e201a0d9e01819d1ea3100"
)


def _golden_figure() -> FigureData:
    fig = FigureData("golden", "t", "x", "y")
    for approach in ("mp-server", "HybComb"):
        for t in (1, 5, 15):
            fig.add_point(approach, t, run_counter_benchmark(
                approach, t, spec=WorkloadSpec.quick()))
    return fig


def test_engine_matches_pre_optimization_golden_fingerprint():
    assert _golden_figure().fingerprint() == GOLDEN_FINGERPRINT


def test_fingerprint_ignores_host_perf_fields():
    # two identical runs differ in wall time / host event counts only;
    # the fingerprint must not see that
    a = _golden_figure()
    b = _golden_figure()
    (_, ra), = a.series["mp-server"].points[:1]
    (_, rb), = b.series["mp-server"].points[:1]
    rb.host_wall_seconds = ra.host_wall_seconds + 1.0
    rb.host_events_processed = ra.host_events_processed + 12345
    assert a.fingerprint() == b.fingerprint()


def test_fig3a_serial_vs_jobs4_identical_fingerprints():
    """The acceptance check: fig3a quick, serial vs --jobs 4."""
    fig_a_serial, fig_b_serial = run_fig3a_3b(quick=True)
    fig_a_par, fig_b_par = run_fig3a_3b(quick=True, jobs=4)
    assert fig_a_serial.fingerprint() == fig_a_par.fingerprint()
    assert fig_b_serial.fingerprint() == fig_b_par.fingerprint()
    # same series, same point order, not merely same hash
    assert fig_a_serial.labels() == fig_a_par.labels()
    for label in fig_a_serial.labels():
        assert (fig_a_serial.series[label].xs()
                == fig_a_par.series[label].xs())


def test_machine_config_fingerprint_roundtrips_through_pickle():
    # worker processes receive their MachineConfig by pickle; the cost
    # model must arrive unchanged or parallel points would silently run
    # under a different machine
    cfg = tile_gx()
    clone = pickle.loads(pickle.dumps(cfg))
    assert clone.fingerprint() == cfg.fingerprint()


# -- runner mechanics -------------------------------------------------------

def _square(x):
    return x * x


def _boom(x):
    raise ValueError(f"boom {x}")


def test_run_sweep_serial_preserves_submission_order():
    pts = [point("s", x, _square, x) for x in (3, 1, 2)]
    assert run_sweep(pts, jobs=1) == [9, 1, 4]


def test_run_sweep_parallel_preserves_submission_order():
    pts = [point("s", x, _square, x) for x in range(8)]
    assert run_sweep(pts, jobs=4) == [x * x for x in range(8)]


@pytest.mark.parametrize("jobs", [1, 3])
def test_point_failure_names_the_failing_point(jobs):
    pts = [point("ok", 1, _square, 1), point("bad", 7, _boom, 7)]
    with pytest.raises(PointFailure) as exc_info:
        run_sweep(pts, jobs=jobs, name="mysweep")
    msg = str(exc_info.value)
    assert "mysweep" in msg and "'bad'" in msg and "x=7" in msg
    assert isinstance(exc_info.value.cause, ValueError)


def test_resolve_jobs_precedence(monkeypatch):
    monkeypatch.delenv("REPRO_JOBS", raising=False)
    assert resolve_jobs(None) == 1      # default: serial
    assert resolve_jobs(6) == 6         # explicit argument
    monkeypatch.setenv("REPRO_JOBS", "4")
    assert resolve_jobs(None) == 4      # environment
    assert resolve_jobs(2) == 2         # argument beats environment
    monkeypatch.setenv("REPRO_JOBS", "zero?")
    with pytest.raises(ValueError):
        resolve_jobs(None)


def _observed_sweep(jobs, incident_dir):
    """Three observed points with every record field populated (an
    impossible SLO breaches, and the breach dumps a bundle)."""
    import repro.obs as obs_mod

    slo = obs_mod.SLO("op-p50-1cyc", kind="latency", target=1.0,
                      quantile=0.5)
    spec = WorkloadSpec(warmup_cycles=2000, measure_cycles=10_000)
    pts = [point("mp-server", t, run_counter_benchmark, "mp-server", t,
                 spec=spec) for t in (1, 2, 3)]
    with obs_mod.observed(timeseries=True, sample_every=256, slos=(slo,),
                          flight=True, spatial_hops=True,
                          incident_dir=incident_dir) as session:
        fig = FigureData("obs-sweep", "t", "x", "y")
        for p, r in zip(pts, run_sweep(pts, jobs=jobs, name="obs/sweep")):
            fig.add_point(p.label, p.x, r)
    return fig, session.records()


def _record_data(rec):
    """A record's content as plain comparable data."""
    tel = rec.timeseries
    return (rec.label, rec.cores, rec.fingerprint, rec.counters,
            tel["every"], tel["ticks"],
            {name: ts.to_dict() for name, ts in tel["series"].items()},
            rec.slo, rec.slo_events, rec.spatial, rec.incidents,
            [os.path.basename(path) for path in rec.incident_paths])


def test_observed_parallel_sweep_records_match_serial(tmp_path):
    """Under a session, points fan out like unobserved ones: each worker
    sends its machines' records back and the parent adds them in
    submission order, so jobs=2 observes exactly what jobs=1 does."""
    serial, srecs = _observed_sweep(1, str(tmp_path / "serial"))
    fanned, precs = _observed_sweep(2, str(tmp_path / "fanned"))
    assert fanned.fingerprint() == serial.fingerprint()
    assert [r.label for r in srecs] == [
        "mp-server T=1", "mp-server T=2", "mp-server T=3"]
    assert all(r.incidents and r.breaches for r in srecs)
    assert [_record_data(r) for r in precs] == [_record_data(r) for r in srecs]
    names = sorted(os.listdir(tmp_path / "serial"))
    assert names == sorted(os.listdir(tmp_path / "fanned"))
    assert names[0].startswith("incident-obs-sweep-p000-m0-00-slo-breach-")
