"""Terminal rendering and export of reproduced figures.

No plotting library is available offline, so figures render as ASCII
charts (good enough to eyeball the shapes against the paper) plus
markdown tables and CSV (the precise numbers for EXPERIMENTS.md).
"""

from __future__ import annotations

import io
from typing import Callable, Dict, List, Optional, Sequence

from repro.analysis.critpath import CATEGORIES, CritPathReport, diff_reports, stragglers
from repro.analysis.series import FigureData
from repro.workload.metrics import RunResult

__all__ = ["ascii_chart", "bar_chart", "markdown_table",
           "render_blame_breakdown", "render_critpath_diff",
           "render_latency_histogram", "render_line_heatmap",
           "render_mesh_heatmap", "render_stragglers", "render_timeline",
           "render_truncation", "to_csv"]

_MARKS = "*o+x#@%&"

_SHADES = " .:-=+*#%@"


def ascii_chart(fig: FigureData, metric: Callable[[RunResult], float],
                *, width: int = 72, height: int = 20) -> str:
    """Render the figure's curves as an ASCII scatter/line chart."""
    all_pts = [(x, metric(r)) for s in fig.series.values() for x, r in s.points]
    if not all_pts:
        return f"[{fig.figure_id}: no data]"
    xs = [p[0] for p in all_pts]
    ys = [p[1] for p in all_pts]
    xmin, xmax = min(xs), max(xs)
    ymin, ymax = 0.0, max(ys) * 1.05 or 1.0
    xspan = (xmax - xmin) or 1.0
    yspan = (ymax - ymin) or 1.0

    grid = [[" "] * width for _ in range(height)]
    for si, (label, s) in enumerate(fig.series.items()):
        mark = _MARKS[si % len(_MARKS)]
        for x, r in s.points:
            cx = int((x - xmin) / xspan * (width - 1))
            cy = int((metric(r) - ymin) / yspan * (height - 1))
            grid[height - 1 - cy][cx] = mark

    out = io.StringIO()
    out.write(f"{fig.title}\n")
    out.write(f"{fig.y_label} (max {ymax:.1f})\n")
    for row in grid:
        out.write("|" + "".join(row) + "\n")
    out.write("+" + "-" * width + "\n")
    out.write(f" {fig.x_label}: {xmin:g} .. {xmax:g}\n")
    legend = "  ".join(
        f"{_MARKS[i % len(_MARKS)]} {label}" for i, label in enumerate(fig.series)
    )
    out.write(f" legend: {legend}\n")
    return out.getvalue()


def bar_chart(labels: Sequence[str], pairs: Dict[str, Sequence[float]],
              *, width: int = 50, title: str = "") -> str:
    """Grouped horizontal bars (used for Figure 4a's stall breakdown).

    ``pairs`` maps group names (e.g. "stalled", "total") to one value
    per label.
    """
    out = io.StringIO()
    if title:
        out.write(title + "\n")
    peak = max((max(v) for v in pairs.values() if len(v)), default=1.0) or 1.0
    for i, label in enumerate(labels):
        for group, values in pairs.items():
            v = values[i]
            bar = "#" * int(v / peak * width)
            out.write(f"  {label:>10s} {group:>8s} |{bar} {v:.1f}\n")
    return out.getvalue()


def render_line_heatmap(lines: Dict[int, Dict[str, int]], *,
                        metric: str = "stall_cycles", top: int = 16,
                        width: int = 50,
                        title: str = "cache-line contention") -> str:
    """Per-cache-line contention heatmap from obs ``line`` counters.

    ``lines`` is the ``"line"`` group of a
    :meth:`~repro.obs.counters.PerfCounters.snapshot` / ``delta`` (or an
    aggregated session snapshot): line number -> register -> value.
    Shows the ``top`` hottest lines by ``metric`` as horizontal bars.
    """
    ranked = sorted(
        ((ln, regs) for ln, regs in lines.items() if regs.get(metric, 0)),
        key=lambda kv: -kv[1].get(metric, 0),
    )[:top]
    out = io.StringIO()
    out.write(f"{title} (top {len(ranked)} lines by {metric})\n")
    if not ranked:
        out.write(f"  [no lines with nonzero {metric}]\n")
        return out.getvalue()
    peak = ranked[0][1].get(metric, 0) or 1
    for ln, regs in ranked:
        v = regs.get(metric, 0)
        bar = "#" * max(1, int(v / peak * width))
        detail = " ".join(
            f"{k}={regs[k]}" for k in ("misses", "invalidations", "atomics")
            if regs.get(k)
        )
        out.write(f"  line {ln:>6d} |{bar:<{width}s}| {v}"
                  + (f"  ({detail})" if detail else "") + "\n")
    return out.getvalue()


def render_latency_histogram(buckets: Dict[int, int], *, width: int = 50,
                             title: str = "UDN delivery latency") -> str:
    """Log2-bucketed latency histogram from the obs ``udn_hist`` group.

    Bucket ``k`` counts deliveries with latency in ``[2^(k-1), 2^k)``
    cycles (bucket 0 is latency 0).
    """
    out = io.StringIO()
    out.write(f"{title} (cycles, log2 buckets)\n")
    live = {k: v for k, v in buckets.items() if v}
    if not live:
        out.write("  [no deliveries]\n")
        return out.getvalue()
    peak = max(live.values())
    for k in range(min(live), max(live) + 1):
        v = buckets.get(k, 0)
        lo = 0 if k == 0 else 1 << (k - 1)
        hi = 0 if k == 0 else (1 << k) - 1
        rng = "0" if k == 0 else f"{lo}-{hi}"
        bar = "#" * int(v / peak * width)
        out.write(f"  {rng:>12s} |{bar:<{width}s}| {v}\n")
    return out.getvalue()


def render_blame_breakdown(report: CritPathReport, *, width: int = 50) -> str:
    """Per-category blame totals of one run, plus the whole-run path mix.

    Top block: cycles per measured op by category (mean over the run).
    Bottom block: the cycle mix along the whole-run critical path -- the
    chain whose dominant category names the bottleneck resource.
    """
    out = io.StringIO()
    n = len(report.measured_ops)
    out.write(f"critical-path blame: {report.label}"
              f" ({n} measured ops")
    if report.incomplete_ops:
        out.write(f", {report.incomplete_ops} incomplete")
    if report.truncated:
        out.write(", TRUNCATED event stream")
    out.write(")\n")
    if not n:
        out.write("  [no measured ops]\n")
        return out.getvalue()
    total = sum(report.blame.values())
    peak = max(report.blame.values()) or 1
    out.write("  per-op blame (cycles/op):\n")
    for cat in CATEGORIES:
        v = report.blame.get(cat, 0)
        if not v:
            continue
        bar = "#" * max(1, int(v / peak * width))
        out.write(f"  {cat:>13s} |{bar:<{width}s}| {v / n:8.1f}"
                  f"  ({100.0 * v / total:4.1f}%)\n")
    if report.path_blame:
        ptotal = report.path_cycles
        out.write(f"  whole-run critical path: {ptotal} cycles,"
                  f" dominant = {report.path_dominant}\n")
        for cat in CATEGORIES:
            v = report.path_blame.get(cat, 0)
            if v:
                out.write(f"  {cat:>13s} {v:>10d}"
                          f"  ({100.0 * v / ptotal:4.1f}%)\n")
    return out.getvalue()


def render_stragglers(report: CritPathReport, k: int = 10) -> str:
    """The K slowest measured ops with their dominant blame category."""
    out = io.StringIO()
    slow = stragglers(report, k)
    out.write(f"p99 stragglers: {report.label}"
              f" ({len(slow)} slowest of {len(report.measured_ops)} ops)\n")
    if not slow:
        out.write("  [no measured ops]\n")
        return out.getvalue()
    out.write(f"  {'op':>8s} {'tid':>4s} {'latency':>8s} {'dominant':>13s}"
              "  blame\n")
    for o in slow:
        mix = " ".join(
            f"{cat}={v}" for cat, v in
            sorted(o.blame.items(), key=lambda kv: -kv[1])
        )
        out.write(f"  {o.op:>8d} {o.tid:>4d} {o.latency:>8d}"
                  f" {o.dominant:>13s}  {mix}\n")
    return out.getvalue()


def render_critpath_diff(a: CritPathReport, b: CritPathReport,
                         *, width: int = 40) -> str:
    """A/B two runs' per-op blame: where do the extra cycles go?"""
    out = io.StringIO()
    out.write(f"critical-path diff: A={a.label}  B={b.label}"
              "  (cycles/op; delta = B - A)\n")
    d = diff_reports(a, b)
    if not d:
        out.write("  [no blame data]\n")
        return out.getvalue()
    peak = max(abs(v["delta"]) for v in d.values()) or 1.0
    out.write(f"  {'category':>13s} {'A':>10s} {'B':>10s} {'delta':>10s}\n")
    for cat in CATEGORIES:
        v = d.get(cat)
        if v is None:
            continue
        mark = "+" if v["delta"] >= 0 else "-"
        bar = mark * max(1, int(abs(v["delta"]) / peak * width))
        out.write(f"  {cat:>13s} {v['a']:>10.1f} {v['b']:>10.1f}"
                  f" {v['delta']:>+10.1f} |{bar}\n")
    out.write(f"  dominant: A={a.dominant}  B={b.dominant}\n")
    return out.getvalue()


#: timeline glyph -> legend name.  Stall and message spans win a
#: bucket; the service, combine and op spans (:data:`_BACKGROUND`) only
#: paint buckets no stall or message span touches.
TIMELINE_GLYPHS = {"r": "load", "w": "store-buffer", "m": "mshr",
                   "A": "atomic", "F": "fence", "v": "recv",
                   "b": "backpressure", "s": "send",
                   "e": "service", "c": "combine", "-": "op"}
_BACKGROUND = frozenset("ec-")
_STALL_GLYPHS = {"load": "r", "store_buffer": "w", "mshr": "m"}


def render_timeline(event_log, *, start: Optional[int] = None,
                    end: Optional[int] = None, width: int = 100,
                    cores: Optional[Sequence[int]] = None) -> str:
    """ASCII Gantt chart of a machine's event log: one row per core.

    Each column is one time bucket showing the glyph of the span
    occupying most of it (:data:`TIMELINE_GLYPHS`); idle buckets stay
    blank.  Spans are clipped to ``[start, end)``; a zero-length span
    (a send) inside the window shows as a one-cycle dot.  A legend and
    the clipped cycles per kind follow the chart, and a log that hit its
    cap says how many events it dropped.
    """
    rec = event_log.index().records
    # (seq, core, glyph, lo, hi) in emission order; a send is a
    # zero-length span at its cycle
    spans = [(r.seq, r.core, _STALL_GLYPHS[r.why], r.start, r.t)
             for r in rec["cache.stall"]]
    for kind, glyph in (("atomic.stall", "A"), ("fence.stall", "F"),
                        ("udn.recv", "v"), ("udn.backpressure", "b"),
                        ("server.done", "e"), ("combiner.close", "c"),
                        ("op.end", "-")):
        spans += [(r.seq, r.core, glyph, r.start, r.t) for r in rec[kind]]
    spans += [(r.seq, r.core, "s", r.t, r.t) for r in rec["udn.send"]]
    spans.sort()
    if not spans:
        return "[empty trace]" + ("\n" + render_truncation(event_log)
                                  if event_log.truncated else "")
    t_lo = min(sp[3] for sp in spans) if start is None else start
    t_hi = max(sp[4] for sp in spans) if end is None else end
    span_t = max(1, t_hi - t_lo)
    bucket = max(1, span_t // width)
    ncols = (span_t + bucket - 1) // bucket
    rows = sorted({sp[1] for sp in spans}) if cores is None else list(cores)
    # per core, per bucket: glyph -> cycles
    grid: Dict[int, List[Dict[str, int]]] = {
        c: [{} for _ in range(ncols)] for c in rows}
    totals: Dict[str, int] = {}
    for _seq, core, glyph, s, e in spans:
        occupancy = grid.get(core)
        if occupancy is None:
            continue
        lo, hi = max(s, t_lo), min(e, t_hi)
        if hi > lo:
            totals[glyph] = totals.get(glyph, 0) + hi - lo
        elif s == e and t_lo <= s < t_hi:
            hi = lo + 1  # zero-length span: a one-cycle dot
        else:
            continue
        for c in range((lo - t_lo) // bucket, (hi - 1 - t_lo) // bucket + 1):
            b_lo = t_lo + c * bucket
            occ = occupancy[c]
            occ[glyph] = occ.get(glyph, 0) + min(hi, b_lo + bucket) - max(lo, b_lo)

    out = io.StringIO()
    out.write(f"timeline: cycles {t_lo}..{t_hi}, one column = {bucket} cycles\n")
    for core in rows:
        row = []
        for occ in grid[core]:
            pick = [g for g in occ if g not in _BACKGROUND] or list(occ)
            row.append(max(pick, key=occ.get) if pick else " ")
        out.write(f"c{core:<3d}|{''.join(row)}|\n")
    out.write("legend: " + "  ".join(f"{g}={k}" for g, k in
                                     TIMELINE_GLYPHS.items()) + "\n")
    if totals:
        top = sorted(totals.items(), key=lambda kv: (-kv[1], kv[0]))
        out.write("cycles by kind: " + ", ".join(
            f"{TIMELINE_GLYPHS[g]}={v}" for g, v in top) + "\n")
    out.write(render_truncation(event_log))
    return out.getvalue()


def render_truncation(event_log) -> str:
    """A line saying how many events a capped event log dropped, or ""."""
    if not event_log.truncated:
        return ""
    return (f"partial data: the event log dropped {event_log.dropped} "
            f"events at its {event_log.limit}-event cap\n")


def markdown_table(fig: FigureData, metric: Callable[[RunResult], float],
                   *, fmt: str = "{:.1f}") -> str:
    """One row per x value, one column per series."""
    xs = sorted({x for s in fig.series.values() for x, _ in s.points})
    out = io.StringIO()
    out.write("| " + fig.x_label + " | " + " | ".join(fig.series) + " |\n")
    out.write("|" + "---|" * (len(fig.series) + 1) + "\n")
    for x in xs:
        row = [f"{x:g}"]
        for s in fig.series.values():
            y = s.y_at(x, metric)
            row.append(fmt.format(y) if y is not None else "-")
        out.write("| " + " | ".join(row) + " |\n")
    return out.getvalue()


def to_csv(fig: FigureData, metrics: Dict[str, Callable[[RunResult], float]]) -> str:
    """Long-format CSV: series,x,<metric columns>."""
    out = io.StringIO()
    out.write("series,x," + ",".join(metrics) + "\n")
    for label, s in fig.series.items():
        for x, r in s.points:
            vals = ",".join(f"{fn(r):.4f}" for fn in metrics.values())
            out.write(f"{label},{x:g},{vals}\n")
    return out.getvalue()


def render_mesh_heatmap(summary, *, title: str = "NoC congestion atlas",
                        top_links: int = 5) -> str:
    """Terminal mesh heatmap of a spatial atlas summary.

    ``summary`` is a :meth:`repro.obs.spatial.SpatialAtlas.summary`
    dict (or a session merge).  Tiles render as a shade grid of their
    outbound-occupancy share (row-major, matching the mesh's node
    numbering); the hottest directed links are listed underneath, since
    link direction does not survive a per-tile projection.
    """
    out = io.StringIO()
    if summary is None or not summary.get("tiles"):
        out.write(f"{title}: no NoC traffic observed\n")
        return out.getvalue()
    w = summary["mesh"]["width"]
    h = summary["mesh"]["height"]
    basis = summary["basis"]
    tiles = summary["tiles"]
    peak = max((e["share"] for e in tiles.values()), default=0.0) or 1.0
    out.write(f"{title} ({w}x{h} mesh, {summary['messages']} msgs, "
              f"tile shade = outbound {basis} share)\n")
    for y in range(h):
        row = []
        for x in range(w):
            e = tiles.get(str(y * w + x))
            share = e["share"] if e else 0.0
            shade = _SHADES[min(len(_SHADES) - 1,
                                int(share / peak * (len(_SHADES) - 1)))]
            mark = "B" if e and e["backpressure"] else shade
            row.append(shade * 2 + mark)
        out.write("  " + " ".join(row) + "\n")
    out.write(f"  scale: '{_SHADES[0]}' idle .. '{_SHADES[-1]}' "
              f"{peak:.1%} share; 'B' = sender backpressure on that tile\n")
    ranked = sorted(summary["links"].items(),
                    key=lambda kv: (-kv[1]["share"], kv[0]))[:top_links]
    for key, e in ranked:
        wait = f", wait {e['wait']} cyc" if e.get("wait") else ""
        out.write(f"  link {key:>7s} {e['share']:6.1%}  "
                  f"{e['msgs']} msgs / {e['words']} words{wait}\n")
    return out.getvalue()
