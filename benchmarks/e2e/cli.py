"""The end-to-end benchmark's command line: run, check, report.

``python -m benchmarks.e2e [--workload NAME]... [--seed N] [--seconds S]
[--trace [0|1]] [--out PATH]`` runs each named workload (default: all)
as a series of repetitions, each in a fresh child process, one after
another, as many as fit in ``--seconds`` (at least :data:`MIN_REPS`).
It prints every metric as ``workload metric value unit``, checks the
simulated outputs, writes a ``BENCH_e2e.json`` record that ``python -m
repro diff`` reads, and ends with one JSON line::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

whose metrics are the end-to-end ones, or with ``--trace 1`` the
per-layer ones.  Exit status: 0 when every check passed, 1 when a check
failed, 2 when the benchmark could not run at all (no result line).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional, Sequence

from benchmarks.e2e.spec import (E2E_METRICS, LAYERS, RESULT_TAG, WORKLOADS,
                                 Workload, per_layer_metrics)

#: repository root (the checkout the benchmark builds from)
ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
EXPECTED_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                             "expected.json")

#: repetitions per workload even when ``--seconds`` is already spent
MIN_REPS = 3
#: the seed the simulated outputs in expected.json are pinned for
PINNED_SEED = 42
#: simulated outputs pinned per workload in expected.json
PINNED_KEYS = ("ops", "counter_value", "events", "mops", "p50", "p99",
               "shed", "digest")
#: host measurements, reported as median and quartiles over repetitions:
#: the end-to-end ones, then the raw run time and host speed that run_s
#: is corrected from (see hostspeed.py)
TIMED = ("setup_s", "run_s", "peak_rss_mb", "wall_s", "host_speed")
RAW_UNITS = {"wall_s": "s", "host_speed": "ratio"}
#: a repetition that takes longer than this is a hung simulator
CHILD_TIMEOUT_S = 150
#: metric name -> unit, for every metric the benchmark reports
UNITS = dict({k: v[0] for k, v in E2E_METRICS.items()},
             **{k: v[0] for k, v in per_layer_metrics().items()})


class BenchmarkError(RuntimeError):
    """The benchmark could not run (as opposed to a failed check)."""


def run_child(job: Dict[str, Any]) -> Dict[str, Any]:
    """Run one repetition in a fresh interpreter and return its result."""
    env = dict(os.environ)
    paths = [ROOT, os.path.join(ROOT, "src")]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "benchmarks.e2e.child", json.dumps(job)],
            cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchmarkError(f"{job['name']}: repetition exceeded "
                             f"{CHILD_TIMEOUT_S} s") from None
    for line in reversed(proc.stdout.splitlines()):
        if line.startswith(RESULT_TAG):
            return json.loads(line[len(RESULT_TAG):])
    raise BenchmarkError(f"{job['name']}: repetition exited with code "
                         f"{proc.returncode}\n{proc.stderr[-2000:]}")


def _quartiles(values: Sequence[float]) -> Dict[str, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3}


def load_pins(path: str) -> Dict[str, Any]:
    with open(path) as f:
        return json.load(f)


def measure(w: Workload, seed: int, seconds: float, trace: bool,
            pins: Dict[str, Any]) -> Dict[str, Any]:
    """All repetitions of one workload, aggregated and checked."""
    job = dict(w.job(seed), profile=False)
    reps: List[Dict[str, Any]] = []
    took: List[float] = []
    t0 = time.perf_counter()
    # start another repetition only if a typical one still ends in time
    while (len(reps) < MIN_REPS or time.perf_counter() - t0
           + statistics.median(took) <= seconds):
        t = time.perf_counter()
        reps.append(run_child(job))
        took.append(time.perf_counter() - t)
    first = reps[0]
    failed = sorted({c for r in reps for c in r["checks"]})
    if any(r["sim"] != first["sim"] or r["counts"] != first["counts"]
           for r in reps[1:]):
        failed.append("repetitions-differ")
    pin = pins.get(w.name)
    if (seed == PINNED_SEED and pin is not None
            and pin["warmup_cycles"] == w.warmup_cycles
            and pin["measure_cycles"] == w.measure_cycles
            and any(first["sim"][k] != pin["outputs"][k]
                    for k in PINNED_KEYS)):
        failed.append("pinned-outputs")
    if w.observed:
        # the observers must not change the run: the same workload with
        # observability off gives exactly the same simulated outputs
        if run_child(dict(job, observed=False))["sim"] != first["sim"]:
            failed.append("observed-differs-from-plain")
    traced = run_child(dict(job, profile=True)) if trace else None
    if traced is not None and traced["sim"] != first["sim"]:
        failed.append("profiled-run-differs")

    sim = first["sim"]
    timed = {k: _quartiles([r[k] for r in reps]) for k in TIMED}
    ns_per_event = _quartiles([r["run_s"] * 1e9 / r["sim"]["events"]
                               for r in reps])
    correct = not failed
    ok_frac = sim["ops"] / sim["attempted"] if correct else 0.0
    e2e = {k: timed[k]["median"] for k in TIMED if k in E2E_METRICS}
    e2e.update({
        "sim_throughput_mops": sim["mops"],
        "sim_latency_p50_cycles": sim["p50"],
        "sim_latency_p99_cycles": sim["p99"],
        "ok_frac": ok_frac,
    })
    counts = dict(first["counts"], **{"sim.ns_per_event":
                                      ns_per_event["median"]})
    out: Dict[str, Any] = {
        "workload": w.name, "cores": w.machine_cores,
        "reps": len(reps), "failed_checks": failed, "correct": correct,
        "attempted": sim["attempted"] * len(reps), "sim": sim,
        "e2e": e2e, "timed": timed, "counts": counts,
        "ns_per_event": ns_per_event,
    }
    if traced is not None:
        out["layers"] = dict(traced["layers"], **{
            "trace.overhead": traced["wall_s"] / timed["wall_s"]["median"]})
    return out


def print_workload(res: Dict[str, Any]) -> None:
    """Every metric of one workload as ``workload metric value unit``."""
    w = res["workload"]
    rows = []
    for name, value in res["e2e"].items():
        rows.append((name, value, UNITS[name]))
        if name == "sim_latency_p99_cycles":
            rows.append(("sim_ops", res["sim"]["samples"], "count"))
    for name, q in res["timed"].items():
        unit = RAW_UNITS.get(name) or UNITS[name]
        if name in RAW_UNITS:
            rows.append((name, q["median"], unit))
        rows.append((f"{name}.q1", q["q1"], unit))
        rows.append((f"{name}.q3", q["q3"], unit))
    rows.append(("fail_frac", 1.0 - res["e2e"]["ok_frac"], "ratio"))
    rows.append(("reps", res["reps"], "count"))
    for k, v in dict(res["counts"], **res.get("layers", {})).items():
        rows.append((k, v, UNITS[k]))
    for name, value, unit in rows:
        print(f"{w} {name} {value:.6g} {unit}")
    for check in res["failed_checks"]:
        print(f"{w} FAILED CHECK {check}")


def layer_table(results: Sequence[Dict[str, Any]]) -> str:
    """Share of host self time per layer, engine (sim) first, by workload.

    The ledger's question: which layers hold the non-engine time, at 36
    and at 1024 cores.
    """
    traced = [r for r in results if "layers" in r]
    if not traced:
        return ""
    head = f"{'workload':<16}{'cores':>6}" + "".join(
        f"{layer:>9}" for layer in LAYERS) + "  top non-engine"
    lines = ["host self time by layer (share of profiled time)", head]
    for r in traced:
        shares = {layer: r["layers"][f"layer.{layer}.share"]
                  for layer in LAYERS}
        top = sorted((layer for layer in LAYERS if layer != "sim"),
                     key=lambda layer: -shares[layer])[:3]
        lines.append(f"{r['workload']:<16}{r['cores']:>6}" + "".join(
            f"{shares[layer]:>9.1%}" for layer in LAYERS)
            + "  " + ", ".join(f"{t} {shares[t]:.0%}" for t in top))
    return "\n".join(lines)


def bench_record(results: Sequence[Dict[str, Any]], seed: int
                 ) -> Dict[str, Any]:
    """The run in the BENCH_*.json shape ``repro diff`` reads."""
    from repro.machine.config import tile_gx

    series = {}
    for r in results:
        p: Dict[str, Any] = {"x": 0, "reps": r["reps"],
                             "sim_ops": r["sim"]["samples"],
                             "fail_frac": 1.0 - r["e2e"]["ok_frac"]}
        p.update(r["e2e"])
        for name, q in r["timed"].items():
            p[name] = q["median"]
            p[f"{name}.q1"] = q["q1"]
            p[f"{name}.q3"] = q["q3"]
        p.update(r["counts"])
        p["sim.ns_per_event.q1"] = r["ns_per_event"]["q1"]
        p["sim.ns_per_event.q3"] = r["ns_per_event"]["q3"]
        p.update(r.get("layers", {}))
        series[r["workload"]] = [p]
    return {"figure": "e2e", "config_fingerprint": tile_gx().fingerprint(),
            "full": False, "jobs": 1, "seed": seed, "series": series}


def result_line(results: Sequence[Dict[str, Any]], trace: bool) -> str:
    """The closing JSON object; metric names are bare for one workload."""
    metrics: Dict[str, Dict[str, Any]] = {}
    for r in results:
        values = dict(r["counts"], **r["layers"]) if trace else r["e2e"]
        prefix = "" if len(results) == 1 else r["workload"] + "/"
        for name, value in values.items():
            metrics[prefix + name] = {"value": value, "unit": UNITS[name]}
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["attempted"] for r in results if not r["correct"])
    return json.dumps({"correct": failed == 0, "attempted": attempted,
                       "failed": failed, "metrics": metrics})


def write_pins(results: Sequence[Dict[str, Any]], path: str) -> None:
    """Re-pin the seed-42 simulated outputs of the workloads just run."""
    pins = load_pins(path) if os.path.exists(path) else {}
    for r in results:
        w = WORKLOADS[r["workload"]]
        pins[w.name] = {"warmup_cycles": w.warmup_cycles,
                        "measure_cycles": w.measure_cycles,
                        "outputs": {k: r["sim"][k] for k in PINNED_KEYS}}
    with open(path, "w") as f:
        json.dump(pins, f, indent=1, sort_keys=True)
        f.write("\n")


def parse_args(argv: Optional[Sequence[str]]) -> argparse.Namespace:
    ap = argparse.ArgumentParser(prog="python -m benchmarks.e2e",
                                 description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", action="append", choices=sorted(WORKLOADS),
                    help="workload to run (repeatable; default: all)")
    ap.add_argument("--seed", type=int, default=PINNED_SEED,
                    help="workload seed (default: %(default)s, the pinned "
                         "one)")
    ap.add_argument("--seconds", type=float, default=20.0,
                    help="measure each workload for this long "
                         f"(at least {MIN_REPS} repetitions; "
                         "default: %(default)s)")
    ap.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                    choices=(0, 1),
                    help="add one profiled repetition per workload and "
                         "report the per-layer metrics")
    ap.add_argument("--out", default="BENCH_e2e.json",
                    help="where to write the record (default: %(default)s)")
    ap.add_argument("--write-pins", action="store_true",
                    help="store this run's simulated outputs as the pinned "
                         f"ones (needs --seed {PINNED_SEED})")
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error(f"--seed must be >= 0, got {args.seed}")
    if args.seconds < 0:
        ap.error(f"--seconds must be >= 0, got {args.seconds}")
    if args.write_pins and args.seed != PINNED_SEED:
        ap.error(f"--write-pins needs --seed {PINNED_SEED}")
    return args


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"e2e: no simulator source under {ROOT}/src; run from a full "
              "checkout", file=sys.stderr)
        return 2
    names = args.workload or list(WORKLOADS)
    pins = load_pins(EXPECTED_PATH)
    results = []
    try:
        for name in names:
            res = measure(WORKLOADS[name], args.seed, args.seconds,
                          bool(args.trace), pins)
            print_workload(res)
            results.append(res)
    except BenchmarkError as e:
        print(f"e2e: {e}", file=sys.stderr)
        return 2
    table = layer_table(results)
    if table:
        print(table)
    if args.write_pins:
        write_pins(results, EXPECTED_PATH)
    with open(args.out, "w") as f:
        json.dump(bench_record(results, args.seed), f, indent=1,
                  sort_keys=True)
        f.write("\n")
    print(result_line(results, bool(args.trace)), flush=True)
    return 0 if all(r["correct"] for r in results) else 1
