"""Cross-run differential analysis: ``python -m repro diff A B``.

Compares two run records -- BENCH_*.json benchmark records, live
RunResults with their observed machines' records, or anything
normalized into the common *record* shape below -- and emits a
**deterministic structured verdict**: every shared metric of every
shared point is classified ``improved`` / ``regressed`` / ``unchanged``
(or ``changed`` for direction-neutral metrics) against a relative
threshold.  Identical inputs always produce byte-identical text/JSON
output (fixed float formatting, fully sorted iteration, no timestamps),
so CI can both gate on the verdict and ``cmp`` repeated invocations.

Record shape (the common data model)::

    {
      "label":       str,          # where the record came from
      "figure":      str | None,
      "fingerprint": str | None,   # machine-profile fingerprint
      "full":        bool | None,  # quick/full sweep mode
      "series": {
        curve_label: [
          {"x": float,
           "metrics": {name: float, ...},      # scalar per-point metrics
           "spatial": atlas_summary | None},   # optional spatial atlas
          ...],
      },
    }

Metric *directions* decide what counts as an improvement: throughput/
goodput/ops up is better, latency/stall/wait/shed down is better, and
host-side provenance (wall seconds, events/sec) plus unknown metrics
are direction-neutral -- reported as ``changed`` but never gated.
Critical-path blame categories (cycles-per-op by category, see
:mod:`repro.analysis.critpath`) fold in through :func:`blame_metrics`
as neutral metrics: blame *shifting* is a diagnosis, not a regression.

CI's regression gates are this same diff run as
``python -m repro diff BASELINE CURRENT --threshold 0.10 --gate
throughput_mops``, so the gate and the human diff can never disagree
about what regressed.
"""

from __future__ import annotations

import json
import math
from typing import Any, Dict, List, Optional, Sequence, Tuple

__all__ = [
    "blame_metrics",
    "diff_records",
    "diff_to_json",
    "load_record",
    "metric_direction",
    "record_from_bench",
    "record_from_results",
    "render_diff_text",
]

#: explicit metric directions: +1 higher-is-better, -1 lower-is-better,
#: 0 direction-neutral (informational).  Matched before the substring
#: heuristics below.
_DIRECTION: Dict[str, int] = {
    "ops": 1,
    "throughput_mops": 1,
    "x": 0,
    "threads": 0,
    "wall_seconds": 0,
    "events_processed": 0,
    "events_per_sec": 0,
    # sparse-directory footprint (BENCH_scale): deterministic
    # model-level bytes, growth is a regression
    "footprint_bytes": -1,
    "footprint_peak_entries": -1,
    "footprint_max_line_bytes": -1,
    "dir.nominal_bytes": -1,
    "dir.peak_entries": -1,
    "dir.max_line_bytes": -1,
    "dir.entries": 0,
    # host events/sec re-published under a gateable name by BENCH_scale
    # (the generic events_per_sec above stays informational); gated with
    # a generous threshold since it measures the CI host too
    "scale_events_per_sec": 1,
    # BENCH_e2e: ok_frac and the deterministic per-layer counts gate as
    # BENCHMARK.json declares (the wait/stall/backpressure/qdepth/timeout
    # counts by the heuristics below); host timings and layer.* stay neutral
    "ok_frac": 1, "fail_frac": -1, "core.combining_rate": 1,
    **dict.fromkeys((
        "sim.events_per_op machine.busy_cycles_per_op mem.loads_per_op "
        "mem.stores_per_op mem.rmr_per_op mem.atomics_per_op mem.cas_fail_ratio "
        "mem.dir_peak_entries mem.dir_nominal_bytes udn.msgs_per_op "
        "noc.packets_per_op noc.flit_cycles_per_op core.service_cycles_per_op "
        "obs.bus_events_per_op").split(), -1),
    # the e2e ledger's profiled Python calls per op: exact for a seed and
    # a Python version, so a rise is added host work, not host noise
    # (``layer.*.us_per_op`` and ``layer.*.share`` stay neutral)
    **{f"layer.{layer}.calls_per_op": -1 for layer in (
        "sim machine mem udn noc core objects workload obs py").split()},
}

#: substring heuristics for metrics not in the explicit table (extras
#: like ``ol.goodput_mops`` or ``obs.misses``); first match wins
_HIGHER = ("throughput", "goodput", "time_in_slo")
_LOWER = ("latency", "stall", "wait", "shed", "backpressure", "miss",
          "timeout", "retry", "breaker", "qdepth", "invalidation")


def metric_direction(name: str) -> int:
    """+1 if bigger is better, -1 if smaller is better, 0 if neutral."""
    d = _DIRECTION.get(name)
    if d is not None:
        return d
    low = name.lower()
    if low.startswith(("blame.", "ts.", "host", "layer.", "trace.")):
        return 0
    for pat in _HIGHER:
        if pat in low:
            return 1
    for pat in _LOWER:
        if pat in low:
            return -1
    return 0


def _verdict(a: float, b: float, direction: int,
             threshold: float) -> Tuple[str, float]:
    """Classify one metric's move; returns (verdict, relative delta)."""
    if a == b:
        return "unchanged", 0.0
    if a == 0:
        delta = math.inf if b > 0 else -math.inf
    else:
        delta = (b - a) / abs(a)
    if abs(delta) <= threshold:
        return "unchanged", delta
    if direction == 0:
        return "changed", delta
    return ("improved" if delta * direction > 0 else "regressed"), delta


# -- record builders ---------------------------------------------------------
def record_from_bench(doc: Dict[str, Any], *, label: str = "bench",
                      series: Optional[str] = None) -> Dict[str, Any]:
    """Normalize a BENCH_*.json document (optionally one curve of it)."""
    if series is not None and series not in doc.get("series", {}):
        raise KeyError(
            f"series {series!r} not in record (have "
            f"{sorted(doc.get('series', {}))})")
    out_series: Dict[str, List[Dict[str, Any]]] = {}
    for curve, points in doc.get("series", {}).items():
        if series is not None and curve != series:
            continue
        out_series[curve] = [
            {"x": p["x"],
             "metrics": {k: v for k, v in p.items()
                         if k != "x" and isinstance(v, (int, float))
                         and not isinstance(v, bool)},
             "spatial": p.get("spatial")}
            for p in points
        ]
    return {
        "label": label,
        "figure": doc.get("figure"),
        "fingerprint": doc.get("config_fingerprint"),
        "full": doc.get("full"),
        "series": out_series,
    }


def _result_metrics(r, rec=None) -> Dict[str, float]:
    m: Dict[str, float] = {
        "threads": r.num_threads,
        "ops": r.ops,
        "throughput_mops": r.throughput_mops,
        "mean_latency_cycles": r.mean_latency_cycles,
        "latency_p50_cycles": r.p50_latency_cycles,
        "latency_p95_cycles": r.p95_latency_cycles,
        "latency_p99_cycles": r.p99_latency_cycles,
    }
    for k, v in r.extra.items():
        if isinstance(v, (int, float)) and not isinstance(v, bool):
            m[k] = v
    if rec is not None and rec.timeseries is not None:
        for name, ts in rec.timeseries["series"].items():
            if name.startswith("spatial."):
                continue  # the atlas diffs structurally, not ring by ring
            m[f"ts.{name}.mean"] = ts.mean()
            m[f"ts.{name}.peak"] = ts.peak()
    return m


def record_from_results(label: str, points: Sequence[Tuple[Any, ...]],
                        *, fingerprint: Optional[str] = None
                        ) -> Dict[str, Any]:
    """One curve of live RunResults as a record (telemetry tour, tests).

    Each point is ``(x, result)`` or ``(x, result, obs_record)``; an
    :class:`~repro.obs.ObsRecord` adds its sampled series' means and
    peaks as ``ts.*`` metrics and its spatial atlas.
    """
    pts = []
    for x, r, *obs_rec in points:
        rec = obs_rec[0] if obs_rec else None
        pts.append({"x": x, "metrics": _result_metrics(r, rec),
                    "spatial": rec.spatial if rec is not None else None})
    return {"label": label, "figure": None, "fingerprint": fingerprint,
            "full": None, "series": {label: pts}}


def blame_metrics(report) -> Dict[str, float]:
    """A critical-path report's per-category cycles/op as diff metrics.

    Neutral-direction (``blame.*``): the diff shows where the cycles
    moved, the throughput/latency metrics say whether that was good.
    """
    ops = max(1, getattr(report, "ops", 1))
    return {f"blame.{cat}": cycles / ops
            for cat, cycles in sorted(report.blame.items())}


def load_record(spec: str) -> Dict[str, Any]:
    """Load ``PATH`` or ``PATH:SERIES`` into a record.

    The ``:SERIES`` suffix selects one curve of a BENCH record, which is
    what lets one file diff against itself across approaches
    (``BENCH_fig3.json:CC-Synch`` vs ``BENCH_fig3.json:HybComb``).  A
    path that exists as written always wins over suffix splitting.
    """
    import os

    path, series = spec, None
    if not os.path.exists(spec) and ":" in spec:
        path, series = spec.rsplit(":", 1)
    with open(path) as f:
        doc = json.load(f)
    label = os.path.basename(path) + (f":{series}" if series else "")
    return record_from_bench(doc, label=label, series=series)


# -- the diff ---------------------------------------------------------------
def _diff_spatial(a: Optional[Dict[str, Any]], b: Optional[Dict[str, Any]],
                  threshold: float, top: int = 5) -> Optional[Dict[str, Any]]:
    """Occupancy-share movement between two atlas summaries."""
    if not a or not b:
        return None
    keys = sorted(set(a.get("links", {})) | set(b.get("links", {})))
    movers = []
    for key in keys:
        sa = a.get("links", {}).get(key, {}).get("share", 0.0)
        sb = b.get("links", {}).get(key, {}).get("share", 0.0)
        if sa != sb:
            movers.append({"link": key, "a": sa, "b": sb, "move": sb - sa})
    movers.sort(key=lambda m: (-abs(m["move"]), m["link"]))
    shifted = sum(abs(m["move"]) for m in movers) / 2.0
    return {
        "total_share_moved": shifted,
        "verdict": "changed" if shifted > threshold else "unchanged",
        "top_movers": movers[:top],
    }


def diff_records(a: Dict[str, Any], b: Dict[str, Any], *,
                 threshold: float = 0.05,
                 gate: Sequence[str] = ()) -> Dict[str, Any]:
    """Compare two records metric by metric (see module docs).

    ``gate`` names the metrics whose regressions make the whole diff
    *gate-fail* (``gate_failures`` non-empty).  When any gate metric is
    set, records that are not comparable (different machine-profile
    fingerprint or quick/full mode) and series or points present in
    ``a`` but missing in ``b`` also gate-fail: an incomparable baseline
    must be regenerated deliberately, not passed silently.
    With exactly one curve on each side the curves pair positionally
    (cross-approach diffs); otherwise curves pair by label.
    """
    a_series = a.get("series", {})
    b_series = b.get("series", {})
    if len(a_series) == 1 and len(b_series) == 1:
        pairs = [(next(iter(a_series)), next(iter(b_series)))]
        only_a, only_b = [], []
    else:
        pairs = [(label, label) for label in sorted(a_series)
                 if label in b_series]
        only_a = sorted(set(a_series) - set(b_series))
        only_b = sorted(set(b_series) - set(a_series))

    gate = tuple(gate)
    counts = {"improved": 0, "regressed": 0, "unchanged": 0, "changed": 0}
    gate_failures: List[str] = []
    comparable = (a.get("fingerprint") == b.get("fingerprint")
                  and a.get("full") == b.get("full"))
    if gate:
        if not comparable:
            gate_failures.append(
                f"records not comparable (fingerprint {a.get('fingerprint')}"
                f" -> {b.get('fingerprint')}, full {a.get('full')} -> "
                f"{b.get('full')}): regenerate the baseline deliberately")
        gate_failures.extend(f"{label}: series disappeared"
                             for label in only_a)
    series_out: List[Dict[str, Any]] = []
    for a_label, b_label in pairs:
        b_points = {p["x"]: p for p in b_series[b_label]}
        pts_out: List[Dict[str, Any]] = []
        missing: List[float] = []
        for ap in a_series[a_label]:
            bp = b_points.get(ap["x"])
            if bp is None:
                missing.append(ap["x"])
                if gate:
                    gate_failures.append(
                        f"{a_label} x={ap['x']:g}: point disappeared")
                continue
            metrics_out: Dict[str, Dict[str, Any]] = {}
            shared = sorted(set(ap["metrics"]) & set(bp["metrics"]))
            worst = "unchanged"
            for name in shared:
                va, vb = ap["metrics"][name], bp["metrics"][name]
                direction = metric_direction(name)
                verdict, delta = _verdict(va, vb, direction, threshold)
                counts[verdict] += 1
                metrics_out[name] = {"a": va, "b": vb, "delta": delta,
                                     "direction": direction,
                                     "verdict": verdict}
                if verdict == "regressed":
                    worst = "regressed"
                elif verdict == "improved" and worst != "regressed":
                    worst = "improved"
                elif verdict == "changed" and worst == "unchanged":
                    worst = "changed"
                if name in gate and verdict == "regressed":
                    gate_failures.append(
                        f"{a_label} x={ap['x']:g}: {name} "
                        f"{va:.6g} -> {vb:.6g} ({delta:+.1%})")
            pts_out.append({
                "x": ap["x"],
                "metrics": metrics_out,
                "verdict": worst,
                "spatial": _diff_spatial(ap.get("spatial"),
                                         bp.get("spatial"), threshold),
            })
        series_out.append({"a_label": a_label, "b_label": b_label,
                           "points": pts_out, "missing_in_b": missing})

    if counts["regressed"] and counts["improved"]:
        overall = "mixed"
    elif counts["regressed"]:
        overall = "regressed"
    elif counts["improved"]:
        overall = "improved"
    elif counts["changed"]:
        overall = "changed"
    else:
        overall = "unchanged"
    return {
        "a": {"label": a.get("label"), "figure": a.get("figure"),
              "fingerprint": a.get("fingerprint"), "full": a.get("full")},
        "b": {"label": b.get("label"), "figure": b.get("figure"),
              "fingerprint": b.get("fingerprint"), "full": b.get("full")},
        "threshold": threshold,
        "comparable": comparable,
        "series": series_out,
        "series_only_in_a": only_a,
        "series_only_in_b": only_b,
        "counts": counts,
        "verdict": overall,
        "gate": list(gate),
        "gate_failures": gate_failures,
    }


# -- rendering ---------------------------------------------------------------
def _fmt_val(v: float) -> str:
    if v != v or v in (math.inf, -math.inf):
        return str(v)
    if isinstance(v, float) and v == int(v) and abs(v) < 1e15:
        return str(int(v))
    return f"{v:.6g}"


def _fmt_delta(d: float) -> str:
    if d == math.inf:
        return "(new)"
    if d == -math.inf:
        return "(gone)"
    return f"{d:+.1%}"


#: metrics rendered first, in this order; everything else sorts after
_PRIORITY = ("throughput_mops", "ops", "latency_p50_cycles",
             "latency_p95_cycles", "latency_p99_cycles",
             "mean_latency_cycles")


def _metric_order(names) -> List[str]:
    prio = {n: i for i, n in enumerate(_PRIORITY)}
    return sorted(names, key=lambda n: (prio.get(n, len(_PRIORITY)), n))


def render_diff_text(diff: Dict[str, Any], *,
                     show_unchanged: bool = False) -> str:
    """Deterministic terminal rendering of one diff verdict."""
    lines = [f"repro diff: {diff['a']['label']} vs {diff['b']['label']}",
             f"threshold +-{diff['threshold']:.1%}; "
             + ("records comparable" if diff["comparable"]
                else "WARNING: records not directly comparable "
                     "(fingerprint or quick/full mode differ)")]
    for s in diff["series"]:
        head = (s["a_label"] if s["a_label"] == s["b_label"]
                else f"{s['a_label']} vs {s['b_label']}")
        lines.append(f"== {head} ==")
        for p in s["points"]:
            shown = 0
            for name in _metric_order(p["metrics"]):
                m = p["metrics"][name]
                if m["verdict"] == "unchanged" and not show_unchanged:
                    continue
                lines.append(
                    f"  x={p['x']:g}  {name:<24s} "
                    f"{_fmt_val(m['a']):>12s} -> {_fmt_val(m['b']):<12s} "
                    f"{_fmt_delta(m['delta']):>8s}  {m['verdict']}")
                shown += 1
            sp = p.get("spatial")
            if sp is not None and sp["verdict"] != "unchanged":
                lines.append(
                    f"  x={p['x']:g}  spatial: "
                    f"{sp['total_share_moved']:.1%} of occupancy share "
                    "moved; top movers: "
                    + ", ".join(f"{m['link']} {m['move']:+.1%}"
                                for m in sp["top_movers"][:3]))
            if not shown and not show_unchanged:
                lines.append(f"  x={p['x']:g}  (all metrics unchanged)")
        for x in s["missing_in_b"]:
            lines.append(f"  x={x:g}  MISSING in B")
    for label in diff["series_only_in_a"]:
        lines.append(f"series only in A: {label}")
    for label in diff["series_only_in_b"]:
        lines.append(f"series only in B: {label}")
    c = diff["counts"]
    lines.append(f"verdict: {diff['verdict']} "
                 f"({c['improved']} improved, {c['regressed']} regressed, "
                 f"{c['changed']} changed, {c['unchanged']} unchanged)")
    if diff["gate"]:
        if diff["gate_failures"]:
            lines.append(f"gate FAIL on {', '.join(diff['gate'])}:")
            for msg in diff["gate_failures"]:
                lines.append("  " + msg)
        else:
            lines.append(f"gate OK on {', '.join(diff['gate'])}")
    return "\n".join(lines)


def diff_to_json(diff: Dict[str, Any]) -> str:
    """The verdict as canonical JSON (sorted keys, fixed separators)."""
    return json.dumps(diff, sort_keys=True, indent=1)
