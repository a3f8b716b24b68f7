"""Tests for the top-level ``python -m repro`` CLI and its one runner."""

import runpy
import sys

import pytest

import repro.experiments.registry as registry
from repro.__main__ import main
from tests.helpers import tiny_experiment


@pytest.fixture
def tiny(monkeypatch):
    monkeypatch.setitem(registry.EXPERIMENTS, "tiny", tiny_experiment)


def test_info_lists_profiles_and_experiments(capsys):
    assert main(["info"]) == 0
    out = capsys.readouterr().out
    assert "tile-gx8036" in out
    assert "x86-like" in out
    assert "scc-like" in out
    assert "fig3a" in out and "disc-scc" in out
    assert "HybComb" in out
    assert "python -m repro run <id>" in out


def test_no_args_defaults_to_info(capsys):
    assert main([]) == 0
    assert "machine profiles" in capsys.readouterr().out


def test_quickstart_runs_small(capsys):
    assert main(["quickstart", "4"]) == 0
    out = capsys.readouterr().out
    assert "mp-server" in out and "Mops/s" in out


def test_run_header_prints_host_perf(capsys):
    assert main(["run", "disc-noc"]) == 0
    out = capsys.readouterr().out
    assert "=== disc-noc: 6 points, " in out
    assert "simulator events in" in out and "events/sec)" in out
    assert "analytic" in out


def test_run_obs_profile_prints_hot_functions(tiny, capsys):
    assert main(["run", "tiny", "--obs", "profile=5"]) == 0
    out = capsys.readouterr().out
    assert "under cProfile" in out
    assert "tottime" in out  # pstats table header
    assert "function calls" in out
    assert "due to restriction <5>" in out


def test_run_rejects_unknown_experiment(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["run", "fig99"])
    assert exc.value.code == 2
    assert "unknown experiment 'fig99'" in capsys.readouterr().err


def test_experiments_forwarding(tiny, monkeypatch, capsys):
    """``python -m repro.experiments`` is the same parser as ``run``."""
    monkeypatch.setattr(sys, "argv", ["repro.experiments", "tiny"])
    with pytest.raises(SystemExit) as exc:
        runpy.run_module("repro.experiments", run_name="__main__")
    assert exc.value.code == 0
    assert "=== tiny: 1 points, " in capsys.readouterr().out


#: the files each --obs spec writes under --out for the one-machine stub;
#: every run also writes the figure data, tiny.csv
_COUNTERS = {"tiny-metrics.csv", "tiny-mesh.svg"}


@pytest.mark.parametrize("spec, files", [
    (None, set()),
    ("counters", _COUNTERS),
    ("trace", _COUNTERS | {"tiny-trace.json"}),
    ("critpath", _COUNTERS | {"tiny-critpath.txt"}),
    ("critpath=3", _COUNTERS | {"tiny-critpath.txt", "tiny-stragglers.txt"}),
    ("latencies", {"tiny-latencies.csv"}),
    ("report", _COUNTERS | {"tiny-dashboard.html"}),
    ("profile", set()),
])
def test_each_obs_word_writes_its_files(tiny, tmp_path, capsys, spec, files):
    argv = ["run", "tiny", "--out", str(tmp_path)]
    assert main(argv + (["--obs", spec] if spec else [])) == 0
    written = {p.name for p in tmp_path.iterdir()}
    assert written == files | {"tiny.csv"}
    assert all((tmp_path / f).stat().st_size for f in written)
    if spec == "critpath=3":
        table = (tmp_path / "tiny-stragglers.txt").read_text()
        assert "(3 slowest of " in table


def test_nothing_is_written_without_out(tiny, tmp_path, monkeypatch,
                                        capsys):
    monkeypatch.chdir(tmp_path)
    assert main(["run", "tiny", "--obs", "trace,critpath=2,latencies,"
                 "report"]) == 0
    out = capsys.readouterr().out
    assert "p99 stragglers" in out and "written to" not in out
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("spec, word", [
    ("bogus", "bogus"), ("counters,tracee", "tracee"),
    ("critpath=x", "critpath"), ("critpath=0", "critpath"),
    ("critpath=-2", "critpath"), ("profile=0", "profile"),
    ("trace=3", "trace"), ("", "''"),
])
def test_bad_obs_spec_exits_2_naming_the_word(spec, word, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["run", "fig4a", "--obs", spec])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "argument --obs" in err and word in err
