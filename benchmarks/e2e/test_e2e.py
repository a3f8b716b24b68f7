"""Self-tests of the end-to-end benchmark.

Run with ``PYTHONPATH=src:. python -m pytest benchmarks/e2e -q``.  The
smoke and mutation tests shrink every workload's windows to a few
thousand cycles, so the whole file takes well under a minute.
"""

from __future__ import annotations

import dataclasses
import gc
import json
import os
import signal
import time

import pytest

from benchmarks.e2e import child, cli, hostspeed
from benchmarks.e2e.layers import fold_profile, layer_of
from benchmarks.e2e.spec import (E2E_METRICS, LAYERS, WORKLOADS,
                                 per_layer_metrics)

TINY = {"warmup_cycles": 2_000, "measure_cycles": 8_000}


@pytest.fixture
def tiny_workloads(monkeypatch):
    """Every workload with its windows shrunk to TINY."""
    tiny = {name: dataclasses.replace(w, **TINY)
            for name, w in WORKLOADS.items()}
    monkeypatch.setattr(cli, "WORKLOADS", tiny)
    return tiny


def _job(w, seed=42, **kw):
    return dict(w.job(seed), profile=False, **kw)


# -- the path-to-layer fold ---------------------------------------------------

@pytest.mark.parametrize("path, layer", [
    ("/ck/src/repro/sim/_engine_core.py", "sim"),
    ("/ck/src/repro/sim/engine.py", "sim"),
    ("/ck/src/repro/sim/resources.py", "sim"),
    ("/ck/src/repro/mem/cache.py", "mem"),
    ("/ck/src/repro/udn/udn.py", "udn"),
    ("/ck/src/repro/noc/router.py", "noc"),
    ("/ck/src/repro/core/hybcomb.py", "core"),
    ("/ck/src/repro/objects/counter.py", "objects"),
    ("/ck/src/repro/workload/openloop.py", "workload"),
    ("/ck/src/repro/obs/spatial.py", "obs"),
    ("/ck/src/repro/machine/machine.py", "machine"),
    ("/ck/benchmarks/e2e/child.py", "workload"),
    # a checkout that is itself called "repro" still folds by package
    ("/home/u/repro/src/repro/noc/topology.py", "noc"),
    ("/usr/lib/python3/site-packages/numpy/core/fromnumeric.py", "py"),
    ("/usr/lib/python3.11/heapq.py", "py"),
    ("~", "py"),
    ("C:\\ck\\src\\repro\\mem\\sharers.py", "mem"),
])
def test_layer_of(path, layer):
    assert layer_of(path) == layer


def test_fold_profile_shares_sum_to_one_and_scale_per_op():
    stats = {
        ("/ck/src/repro/sim/_engine_core.py", 1, "run"): (1, 10, 0.6, 1, {}),
        ("/ck/src/repro/mem/cache.py", 1, "load"): (4, 4, 0.3, 1, {}),
        ("~", 0, "<built-in method len>"): (6, 6, 0.1, 0.1, {}),
    }
    out = fold_profile(stats, ops=2)
    assert sum(out[f"layer.{layer}.share"] for layer in LAYERS) == \
        pytest.approx(1.0)
    assert out["layer.sim.share"] == pytest.approx(0.6)
    assert out["layer.mem.us_per_op"] == pytest.approx(0.3e6 / 2)
    assert out["layer.py.calls_per_op"] == 3
    assert out["layer.udn.share"] == 0
    assert set(out) == {k for k in per_layer_metrics()
                        if k.startswith("layer.")}


# -- the host-speed correction ------------------------------------------------

def test_host_seconds_scale_wall_time_by_the_probes_in_the_interval(
        monkeypatch):
    ref = hostspeed.REF_PROBE_S
    # two probes at half speed inside [0, 1), one at full speed after it
    monkeypatch.setattr(hostspeed, "_probes",
                        [(0.1, 2 * ref), (0.5, 2 * ref), (1.5, ref)])
    seconds, speed = hostspeed.host_seconds(0.0, 1.0)
    assert speed == pytest.approx(0.5)
    assert seconds == pytest.approx((1.0 - 4 * ref) * 0.5)
    # no probe inside: the speed of every probe so far
    assert hostspeed.host_seconds(2.0, 3.0)[1] == pytest.approx(2 / 3)
    monkeypatch.setattr(hostspeed, "_probes", [])
    assert hostspeed.host_seconds(2.0, 3.0) == (1.0, 1.0)


def test_probe_skips_a_tick_inside_a_probe_and_restores_the_handler(
        monkeypatch):
    monkeypatch.setattr(hostspeed, "_probes", [])
    monkeypatch.setitem(hostspeed._state, "busy", True)
    hostspeed._probe(signal.SIGALRM, None)
    assert hostspeed._probes == []
    monkeypatch.setitem(hostspeed._state, "busy", False)
    hostspeed._probe(signal.SIGALRM, None)
    assert len(hostspeed._probes) == 1 and gc.isenabled()

    before = signal.getsignal(signal.SIGALRM)
    with hostspeed.probing():
        assert signal.getsignal(signal.SIGALRM) is hostspeed._probe
        deadline = time.perf_counter() + 0.1
        while time.perf_counter() < deadline:
            pass
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is before
    assert len(hostspeed._probes) > 1


# -- declarations stay in step ------------------------------------------------

def test_benchmark_json_matches_spec():
    with open(os.path.join(cli.ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    assert bench["paths"] == ["benchmarks/e2e"]
    assert {w["name"]: w["why"] for w in bench["workloads"]} == {
        name: w.why for name, w in WORKLOADS.items()}
    assert {m["name"]: (m["unit"], m["better"], m["bound"])
            for m in bench["end_to_end"]} == E2E_METRICS
    assert {m["name"]: (m["unit"], m["better"])
            for m in bench["per_layer"]} == per_layer_metrics()
    bounds = [m["bound"] for m in bench["end_to_end"]]
    assert all(0 <= b <= 0.25 for b in bounds)
    assert E2E_METRICS["setup_s"][2] == max(bounds)


def test_pins_cover_every_workload_at_its_windows():
    pins = cli.load_pins(cli.EXPECTED_PATH)
    assert set(pins) == set(WORKLOADS)
    for name, w in WORKLOADS.items():
        assert pins[name]["warmup_cycles"] == w.warmup_cycles
        assert pins[name]["measure_cycles"] == w.measure_cycles
        assert set(pins[name]["outputs"]) == set(cli.PINNED_KEYS)
    # the observers must not change the run
    assert pins["counter-mp-obs"]["outputs"] == pins["counter-mp"]["outputs"]


# -- the workloads are the library's own scenarios ----------------------------

def test_closed_loops_match_run_counter_benchmark():
    from repro.workload.driver import WorkloadSpec
    from repro.workload.scenarios import run_counter_benchmark

    for name in ("counter-mp", "counter-cc"):
        w = dataclasses.replace(WORKLOADS[name], **TINY)
        got = child.run_job(_job(w, seed=7))
        ref = run_counter_benchmark(w.approach, w.clients,
                                    spec=WorkloadSpec(seed=7, **TINY))
        assert got["sim"]["ops"] == ref.ops
        assert got["sim"]["p99"] == ref.p99_latency_cycles
        assert got["sim"]["digest"] == child._digest(ref)
        assert got["checks"] == []


def test_open_loop_matches_run_overload_point():
    from repro.experiments.overload import run_overload_point

    ref = run_overload_point("mp-server", 100.0, 1.5, "retry", seed=3)
    w = dataclasses.replace(WORKLOADS["overload-mp"], warmup_cycles=20_000,
                            measure_cycles=120_000)
    got = child.run_job(_job(w, seed=3))
    assert got["sim"]["ops"] == ref.ops
    assert got["sim"]["shed"] == ref.shed_ops
    assert got["sim"]["digest"] == child._digest(ref)
    assert got["sim"]["counter_value"] == ref.extra["ol.counter_value"]
    assert got["checks"] == []


# -- the command, end to end on tiny windows ----------------------------------

def _lines(out: str):
    rows = {}
    for line in out.splitlines():
        parts = line.split()
        if len(parts) == 4:
            rows[(parts[0], parts[1])] = parts[3]
    return rows


def test_smoke_all_workloads_traced(tiny_workloads, tmp_path, capsys):
    out_path = tmp_path / "BENCH_e2e.json"
    code = cli.main(["--seconds", "0", "--trace", "--out", str(out_path)])
    out = capsys.readouterr().out
    assert code == 0, out
    rows = _lines(out)
    units = dict({k: v[0] for k, v in E2E_METRICS.items()},
                 **{k: v[0] for k, v in per_layer_metrics().items()})
    for name in tiny_workloads:
        for metric, unit in units.items():
            assert rows.get((name, metric)) == unit, (name, metric)
        assert rows[(name, "reps")] == "count"
    assert "FAILED CHECK" not in out
    assert "host self time by layer" in out

    result = json.loads(out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    assert "scale-1024/trace.overhead" in result["metrics"]

    record = json.loads(out_path.read_text())
    assert set(record["series"]) == set(tiny_workloads)
    point = record["series"]["counter-cc"][0]
    assert point["x"] == 0 and point["reps"] == cli.MIN_REPS
    assert point["run_s.q1"] <= point["run_s"] <= point["run_s.q3"]
    assert point["wall_s.q1"] <= point["wall_s"] <= point["wall_s.q3"]
    assert point["host_speed"] > 0


def test_single_workload_result_line_has_bare_end_to_end_names(
        tiny_workloads, tmp_path, capsys):
    code = cli.main(["--workload", "counter-mp", "--seconds", "0",
                     "--seed", "5", "--out", str(tmp_path / "b.json")])
    out = capsys.readouterr().out
    assert code == 0
    result = json.loads(out.strip().splitlines()[-1])
    assert set(result["metrics"]) == set(E2E_METRICS)
    for name, (unit, _better, _bound) in E2E_METRICS.items():
        assert result["metrics"][name]["unit"] == unit
        assert result["metrics"][name]["value"] > 0


def test_perturbed_pin_fails_the_run(tiny_workloads, tmp_path, capsys,
                                     monkeypatch):
    w = tiny_workloads["counter-mp"]
    sim = child.run_job(_job(w))["sim"]
    pins_path = tmp_path / "expected.json"
    monkeypatch.setattr(cli, "EXPECTED_PATH", str(pins_path))
    argv = ["--workload", "counter-mp", "--seconds", "0",
            "--out", str(tmp_path / "b.json")]

    def pin(outputs):
        pins_path.write_text(json.dumps({"counter-mp": dict(
            TINY, outputs={k: outputs[k] for k in cli.PINNED_KEYS})}))

    pin(sim)
    assert cli.main(argv) == 0
    capsys.readouterr()

    pin(dict(sim, ops=sim["ops"] + 1))
    assert cli.main(argv) == 1
    out = capsys.readouterr().out
    assert "counter-mp FAILED CHECK pinned-outputs" in out
    result = json.loads(out.strip().splitlines()[-1])
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] >= 1
    assert result["metrics"]["ok_frac"]["value"] == 0.0
    assert _lines(out)[("counter-mp", "fail_frac")] == "ratio"


def test_missing_source_exits_without_a_result(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(cli, "ROOT", str(tmp_path))
    assert cli.main(["--workload", "counter-mp"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "no simulator source" in captured.err
