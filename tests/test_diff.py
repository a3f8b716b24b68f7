"""Cross-run differential analysis: repro.analysis.diff + the diff CLI."""

import copy
import json
import math
from pathlib import Path

import pytest

from repro.analysis.diff import (
    blame_metrics,
    diff_records,
    diff_to_json,
    load_record,
    metric_direction,
    record_from_bench,
    record_from_results,
    render_diff_text,
)
from repro.workload.metrics import RunResult


def _series(d, label):
    """Pick one paired-series entry of a diff by its a-side label."""
    return next(s for s in d["series"] if s["a_label"] == label)


def _bench_doc(**tweak):
    doc = {
        "figure": "figX",
        "config_fingerprint": "abc123",
        "full": False,
        "jobs": 1,
        "series": {
            "mp-server": [
                {"x": 1, "threads": 1, "ops": 100, "throughput_mops": 10.0,
                 "latency_p50_cycles": 50.0, "latency_p99_cycles": 90.0},
                {"x": 8, "threads": 8, "ops": 800, "throughput_mops": 80.0,
                 "latency_p50_cycles": 60.0, "latency_p99_cycles": 120.0},
            ],
            "CC-Synch": [
                {"x": 1, "threads": 1, "ops": 90, "throughput_mops": 9.0,
                 "latency_p50_cycles": 55.0, "latency_p99_cycles": 95.0},
            ],
        },
    }
    doc.update(tweak)
    return doc


# -- direction table -------------------------------------------------------

def test_metric_direction_table():
    assert metric_direction("throughput_mops") == 1
    assert metric_direction("goodput_mops") == 1
    assert metric_direction("latency_p99_cycles") == -1
    assert metric_direction("ol.shed_ops") == -1
    assert metric_direction("backpressure_cycles") == -1
    assert metric_direction("threads") == 0
    assert metric_direction("x") == 0
    # unknown / provenance metrics never produce verdicts
    assert metric_direction("ts.core.busy.mean") == 0
    assert metric_direction("blame.queueing") == 0
    assert metric_direction("some.novel.metric") == 0


def test_layer_call_counts_are_lower_is_better():
    """Profiled calls per op are exact, so they gate; the ledger's host
    times and shares stay neutral."""
    assert metric_direction("layer.obs.calls_per_op") == -1
    assert metric_direction("layer.py.calls_per_op") == -1
    assert metric_direction("layer.obs.us_per_op") == 0
    assert metric_direction("layer.obs.share") == 0
    a, b = (record_from_bench({"series": {"e2e": [
        {"x": 1, "layer.obs.calls_per_op": calls,
         "layer.obs.us_per_op": us}]}}, label=label)
        for label, calls, us in (("a", 21.3, 19.0), ("b", 23.3, 29.0)))
    d = diff_records(a, b, gate=("layer.obs.calls_per_op",))
    metrics = _series(d, "e2e")["points"][0]["metrics"]
    assert metrics["layer.obs.calls_per_op"]["verdict"] == "regressed"
    assert metrics["layer.obs.us_per_op"]["verdict"] == "changed"
    assert d["gate_failures"]


# -- diffing ---------------------------------------------------------------

#: BENCH_e2e metrics that measure the host, not the simulated program
_E2E_HOST = {"run_s", "setup_s", "wall_s", "host_speed", "peak_rss_mb",
             "sim.ns_per_event", "trace.overhead"}


def test_benchmark_json_directions():
    """Deterministic e2e counts and ok_frac gate in the direction
    BENCHMARK.json declares; host timings and layer.* shares never gate."""
    root = Path(__file__).resolve().parents[1]
    doc = json.loads((root / "BENCHMARK.json").read_text())
    sign = {"higher": 1, "lower": -1}
    gated = 0
    for m in doc["end_to_end"] + doc["per_layer"]:
        name = m["name"]
        if name in _E2E_HOST or (name.startswith("layer.")
                                 and not name.endswith(".calls_per_op")):
            assert metric_direction(name) == 0, name
        else:
            assert metric_direction(name) == sign[m["better"]], name
            gated += 1
    # 4 simulated end-to-end + 25 per-layer counts + 10 layer call counts
    assert gated == 39
    for name in ("wall_s", "host_speed"):
        assert metric_direction(name) == 0


def test_self_diff_is_unchanged():
    a = record_from_bench(_bench_doc(), label="a")
    b = record_from_bench(_bench_doc(), label="b")
    d = diff_records(a, b)
    assert d["verdict"] == "unchanged"
    assert d["comparable"]
    assert d["counts"]["regressed"] == 0 and d["counts"]["improved"] == 0


def test_perturbed_throughput_flags_regressed():
    doc = _bench_doc()
    doc["series"]["mp-server"][1]["throughput_mops"] = 40.0  # -50%
    a = record_from_bench(_bench_doc(), label="base")
    b = record_from_bench(doc, label="cand")
    d = diff_records(a, b)
    assert d["verdict"] == "regressed"
    pt = _series(d, "mp-server")["points"][1]
    m = pt["metrics"]["throughput_mops"]
    assert m["verdict"] == "regressed"
    assert m["delta"] == pytest.approx(-0.5)
    assert pt["verdict"] == "regressed"


def test_latency_drop_is_an_improvement():
    doc = _bench_doc()
    doc["series"]["mp-server"][0]["latency_p99_cycles"] = 45.0  # -50%
    d = diff_records(record_from_bench(_bench_doc(), label="a"),
                     record_from_bench(doc, label="b"))
    assert d["verdict"] == "improved"


def test_threshold_absorbs_small_moves():
    doc = _bench_doc()
    doc["series"]["mp-server"][0]["throughput_mops"] *= 1.04  # within 5%
    d = diff_records(record_from_bench(_bench_doc(), label="a"),
                     record_from_bench(doc, label="b"))
    assert d["verdict"] == "unchanged"
    d = diff_records(record_from_bench(_bench_doc(), label="a"),
                     record_from_bench(doc, label="b"), threshold=0.01)
    assert d["verdict"] == "improved"


def test_gate_collects_failures_and_missing_points():
    doc = _bench_doc()
    doc["series"]["mp-server"][1]["throughput_mops"] = 40.0
    del doc["series"]["CC-Synch"][0]  # x=1 point vanishes
    doc["series"]["CC-Synch"] = []
    d = diff_records(record_from_bench(_bench_doc(), label="a"),
                     record_from_bench(doc, label="b"),
                     gate=("throughput_mops",))
    assert any("throughput_mops" in msg for msg in d["gate_failures"])
    assert any("point disappeared" in msg for msg in d["gate_failures"])
    # without a gate the same diff reports but does not gate-fail
    d2 = diff_records(record_from_bench(_bench_doc(), label="a"),
                      record_from_bench(doc, label="b"))
    assert d2["gate_failures"] == []


@pytest.mark.parametrize("tweak", [dict(config_fingerprint="zzz"),
                                   dict(full=True)])
def test_gate_fails_on_incomparable_records(tweak):
    a = record_from_bench(_bench_doc(), label="a")
    b = record_from_bench(_bench_doc(**tweak), label="b")
    d = diff_records(a, b, gate=("throughput_mops",))
    assert not d["comparable"]
    assert len(d["gate_failures"]) == 1
    assert d["gate_failures"][0].startswith("records not comparable")
    # without a gate the mismatch is a warning, not a failure
    assert diff_records(a, b)["gate_failures"] == []


def test_gate_fails_when_a_series_disappears():
    doc = _bench_doc()
    del doc["series"]["CC-Synch"]
    doc["series"]["HybComb"] = doc["series"]["mp-server"]
    a = record_from_bench(_bench_doc(), label="a")
    b = record_from_bench(doc, label="b")
    d = diff_records(a, b, gate=("throughput_mops",))
    assert d["series_only_in_a"] == ["CC-Synch"]
    assert d["gate_failures"] == ["CC-Synch: series disappeared"]
    assert diff_records(a, b)["gate_failures"] == []


def test_cli_gate_exits_1_on_incomparable_or_missing_series(tmp_path, capsys):
    from repro.__main__ import main

    base = tmp_path / "base.json"
    base.write_text(json.dumps(_bench_doc()))
    other = tmp_path / "other.json"
    other.write_text(json.dumps(_bench_doc(config_fingerprint="zzz")))
    gate = ["--threshold", "0.10", "--gate", "throughput_mops"]
    assert main(["diff", str(base), str(other)] + gate) == 1
    assert "gate FAIL" in capsys.readouterr().out
    doc = _bench_doc()
    del doc["series"]["CC-Synch"]
    doc["series"]["HybComb"] = []
    other.write_text(json.dumps(doc))
    assert main(["diff", str(base), str(other)] + gate) == 1
    assert "CC-Synch: series disappeared" in capsys.readouterr().out
    assert main(["diff", str(base), str(base)] + gate) == 0


def test_single_curves_pair_positionally_across_labels():
    a = record_from_bench(_bench_doc(), label="a", series="mp-server")
    b = record_from_bench(_bench_doc(), label="b", series="CC-Synch")
    d = diff_records(a, b)
    s = d["series"][0]
    assert s["a_label"] == "mp-server" and s["b_label"] == "CC-Synch"
    assert len(s["points"]) == 1  # only x=1 exists on both sides
    assert s["missing_in_b"] == [8]


def test_fingerprint_mismatch_marks_incomparable():
    d = diff_records(
        record_from_bench(_bench_doc(), label="a"),
        record_from_bench(_bench_doc(config_fingerprint="zzz"), label="b"))
    assert not d["comparable"]


def test_record_from_bench_rejects_unknown_series():
    with pytest.raises(KeyError):
        record_from_bench(_bench_doc(), label="a", series="nope")


# -- spatial diff ----------------------------------------------------------

def _spatial(shares):
    links = {k: {"msgs": 1, "words": 1, "busy": 0, "wait": 0,
                 "packets": 0, "share": v} for k, v in shares.items()}
    return {"format": 1, "mesh": {"width": 6, "height": 6},
            "contended": False, "basis": "words", "messages": 1,
            "words": 1, "links": links, "tiles": {}, "series_dropped": 0}


def test_spatial_share_movement_is_reported():
    a = record_from_bench(_bench_doc(), label="a", series="mp-server")
    b = record_from_bench(_bench_doc(), label="b", series="mp-server")
    a["series"]["mp-server"][0]["spatial"] = _spatial(
        {"0>1": 0.8, "1>2": 0.2})
    b["series"]["mp-server"][0]["spatial"] = _spatial(
        {"0>1": 0.2, "1>2": 0.8})
    d = diff_records(a, b)
    sp = d["series"][0]["points"][0]["spatial"]
    assert sp["total_share_moved"] == pytest.approx(0.6)
    movers = {m["link"]: m["move"] for m in sp["top_movers"]}
    assert movers["0>1"] == pytest.approx(-0.6)
    assert movers["1>2"] == pytest.approx(+0.6)


# -- rendering determinism -------------------------------------------------

def test_text_and_json_renders_are_deterministic():
    doc = _bench_doc()
    doc["series"]["mp-server"][1]["throughput_mops"] = 40.0
    a = record_from_bench(_bench_doc(), label="a")
    b = record_from_bench(doc, label="b")
    t1 = render_diff_text(diff_records(a, b))
    t2 = render_diff_text(diff_records(copy.deepcopy(a), copy.deepcopy(b)))
    assert t1 == t2
    j1 = diff_to_json(diff_records(a, b))
    j2 = diff_to_json(diff_records(a, b))
    assert j1 == j2
    json.loads(j1)  # valid JSON
    assert "regressed" in t1


def test_infinite_delta_survives_text_render():
    doc = _bench_doc()
    doc["series"]["mp-server"][0]["ops"] = 0
    d = diff_records(record_from_bench(doc, label="a"),
                     record_from_bench(_bench_doc(), label="b"))
    txt = render_diff_text(d)
    assert "(new)" in txt
    # and the structured form keeps the signed infinity
    m = _series(d, "mp-server")["points"][0]["metrics"]["ops"]
    assert math.isinf(m["delta"])


# -- live results / blame --------------------------------------------------

def _result(ops=1000, lat=50.0):
    r = RunResult(name="mp-server", num_threads=4, ops=ops,
                  window_cycles=10_000, clock_mhz=1200)
    r.mean_latency_cycles = lat
    r.p50_latency_cycles = lat
    r.p95_latency_cycles = lat * 2
    r.p99_latency_cycles = lat * 3
    return r


def test_record_from_results_and_diff():
    a = record_from_results("run-a", [(4, _result(ops=1000))])
    b = record_from_results("run-b", [(4, _result(ops=400))])
    d = diff_records(a, b)
    assert d["verdict"] == "regressed"


def test_record_from_results_reads_the_observed_machines_record():
    """A point given with its machine's ObsRecord carries the sampled
    series as ``ts.*`` metrics and the spatial atlas for the diff."""
    import repro.obs as obs
    from repro.workload import WorkloadSpec
    from repro.workload.scenarios import run_counter_benchmark

    with obs.observed(timeseries=True, spatial=True) as session:
        r = run_counter_benchmark("mp-server", 4, spec=WorkloadSpec(
            warmup_cycles=2_000, measure_cycles=10_000))
    (rec,) = session.records()
    (pt,) = record_from_results("obs", [(4, r, rec)])["series"]["obs"]
    busy = rec.timeseries["series"]["core.busy"]
    assert pt["metrics"]["ts.core.busy.mean"] == busy.mean() > 0
    assert pt["metrics"]["ts.core.busy.peak"] == busy.peak()
    assert not any(k.startswith("ts.spatial.") for k in pt["metrics"])
    assert pt["spatial"] is rec.spatial and pt["spatial"]["links"]
    (plain,) = record_from_results("obs", [(4, r)])["series"]["obs"]
    assert plain["spatial"] is None
    assert not any(k.startswith("ts.") for k in plain["metrics"])


def test_blame_metrics_normalizes_per_op():
    class Rep:
        label = "x"
        ops = 10
        blame = {"queueing": 300.0, "service": 500.0}
    m = blame_metrics(Rep())
    assert m == {"blame.queueing": 30.0, "blame.service": 50.0}


# -- load_record / CLI -----------------------------------------------------

def test_load_record_with_series_selector(tmp_path):
    p = tmp_path / "BENCH_x.json"
    p.write_text(json.dumps(_bench_doc()))
    rec = load_record(f"{p}:CC-Synch")
    assert list(rec["series"]) == ["CC-Synch"]
    assert rec["label"].endswith("BENCH_x.json:CC-Synch")
    rec_all = load_record(str(p))
    assert set(rec_all["series"]) == {"mp-server", "CC-Synch"}
    with pytest.raises((KeyError, OSError)):
        load_record(f"{p}:nope")


def test_cli_diff_text_json_and_gate(tmp_path, capsys):
    from repro.__main__ import main

    base = tmp_path / "base.json"
    cand = tmp_path / "cand.json"
    base.write_text(json.dumps(_bench_doc()))
    doc = _bench_doc()
    doc["series"]["mp-server"][1]["throughput_mops"] = 40.0
    cand.write_text(json.dumps(doc))

    assert main(["diff", str(base), str(base)]) == 0
    out = capsys.readouterr().out
    assert "verdict: unchanged" in out

    assert main(["diff", str(base), str(cand)]) == 0  # no gate -> exit 0
    out = capsys.readouterr().out
    assert "regressed" in out

    rc = main(["diff", str(base), str(cand), "--gate", "throughput_mops"])
    assert rc == 1
    assert "gate FAIL" in capsys.readouterr().out

    assert main(["diff", str(base), str(cand), "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["verdict"] == "regressed"


def test_cli_diff_writes_html(tmp_path, capsys):
    from repro.__main__ import main

    base = tmp_path / "base.json"
    base.write_text(json.dumps(_bench_doc()))
    html_path = tmp_path / "out" / "diff.html"
    assert main(["diff", str(base), str(base), "--html",
                 str(html_path)]) == 0
    doc = html_path.read_text()
    assert doc.lstrip().startswith("<!DOCTYPE html>")
    assert "verdict: unchanged" in doc


def test_cli_diff_bad_path_exits_2(tmp_path, capsys):
    from repro.__main__ import main

    assert main(["diff", str(tmp_path / "missing.json"),
                 str(tmp_path / "missing.json")]) == 2
    assert "error:" in capsys.readouterr().err
