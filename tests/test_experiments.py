"""Smoke + shape tests of the experiment modules (tiny sweeps).

The full shape battery lives in benchmarks/; here each experiment runs
with a minimal parameterization so the whole registry stays exercised in
the unit-test suite.
"""

import pytest

from repro.experiments import EXPERIMENTS, run_experiment
from repro.experiments.fig3 import run_fig3a_3b, run_fig3c
from repro.experiments.fig4 import run_fig4a, run_fig4b, run_fig4c
from repro.experiments.fig5 import run_fig5a, run_fig5b
from repro.__main__ import main
from repro.experiments.registry import metric_for


def test_registry_is_complete():
    assert set(EXPERIMENTS) == {
        "fig3a", "fig3b", "fig3c", "fig4a", "fig4b", "fig4c",
        "fig5a", "fig5b",
        "disc-x86", "disc-scc", "disc-oversub", "disc-backpressure", "disc-noc",
        "disc-faults", "overload", "scale", "scale-smoke",
    }


def test_unknown_experiment_rejected():
    with pytest.raises(ValueError, match="unknown experiment"):
        run_experiment("fig99")


def test_fig3a_3b_small():
    fig_a, fig_b = run_fig3a_3b(quick=True, threads=(2, 6),
                                approaches=("mp-server", "CC-Synch"))
    assert set(fig_a.series) == {"mp-server", "CC-Synch"}
    assert fig_a.series["mp-server"].xs() == [2, 6]
    # same runs feed both figures
    assert fig_b.series["mp-server"].points[0][1] is fig_a.series["mp-server"].points[0][1]
    for _x, r in fig_a.series["mp-server"].points:
        assert r.throughput_mops > 0


def test_fig3c_small():
    fig = run_fig3c(quick=True, max_ops_values=(1, 100), num_threads=8)
    assert fig.series["HybComb"].xs() == [1, 100]
    assert fig.series["HybComb"].y_at(100, lambda r: r.throughput_mops) > \
           fig.series["HybComb"].y_at(1, lambda r: r.throughput_mops)


def test_fig4a_small():
    fig = run_fig4a(quick=True, num_threads=8)
    assert len(fig.series) == 4
    (_x, r), = fig.series["mp-server"].points
    assert r.service_stall_per_op <= 1.0
    (_x, r), = fig.series["shm-server"].points
    assert r.service_stall_per_op > 5


def test_fig4b_small():
    fig = run_fig4b(quick=True, threads=(4, 8))
    assert set(fig.series) == {"HybComb", "CC-Synch"}
    for s in fig.series.values():
        for _x, r in s.points:
            assert (r.combining_rate or 0) >= 1


def test_fig4c_small():
    fig = run_fig4c(quick=True, iterations=(0, 6), num_threads=8)
    ideal = fig.series["ideal"]
    cpo = lambda r: r.cycles_per_op
    assert ideal.y_at(6, cpo) > ideal.y_at(0, cpo)
    for label in ("mp-server", "shm-server"):
        s = fig.series[label]
        for k in (0, 6):
            assert s.y_at(k, cpo) > ideal.y_at(k, cpo) * 0.98


def test_fig5a_small():
    fig = run_fig5a(quick=True, clients=(4,), impls=("mp-server-1", "LCRQ"))
    assert set(fig.series) == {"mp-server-1", "LCRQ"}


def test_fig5b_small():
    fig = run_fig5b(quick=True, clients=(4,), impls=("mp-server", "Treiber"))
    assert set(fig.series) == {"mp-server", "Treiber"}


def test_metric_selection():
    assert metric_for("fig3b").__name__ == "<lambda>"
    r_like = type("R", (), {"throughput_mops": 5.0, "mean_latency_cycles": 7.0,
                            "combining_rate": 3.0, "cycles_per_op": 11.0})()
    assert metric_for("fig3a")(r_like) == 5.0
    assert metric_for("fig3b")(r_like) == 7.0
    assert metric_for("fig4b")(r_like) == 3.0
    assert metric_for("fig4c")(r_like) == 11.0


def test_cli_runs_one_experiment_and_exports_csv(tmp_path, capsys):
    rc = main(["run", "fig4a", "--out", str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "fig4a" in out
    csv = (tmp_path / "fig4a.csv").read_text()
    assert csv.startswith("series,x,")
    assert "mp-server" in csv


def test_cli_rejects_unknown(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["run", "nonsense"])
    assert exc.value.code == 2
    assert "unknown experiment" in capsys.readouterr().err
