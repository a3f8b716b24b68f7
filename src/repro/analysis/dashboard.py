"""Run dashboards: sparkline grids, SLO burn charts, incident lists.

``python -m repro run --obs report`` renders one **self-contained HTML
file** per experiment from the continuous-telemetry layer (DESIGN.md
§14): every observed machine contributes a grid of per-subsystem
sparklines (core cycles, cache misses, UDN occupancy/backpressure, NoC
flits, admission queue depth, goodput), each SLO gets a burn-rate chart
with its alert threshold and breach/recover markers, and flight-recorder
incidents are listed with their bundle paths. Everything is inline SVG +
inline CSS -- no external scripts, stylesheets, or image fetches -- so
the file can be archived as a CI artifact and opened offline years
later.

:func:`render_dashboard_text` is the terminal twin (unicode block
sparklines) printed by the CLI so headless runs still get the shape of
the run at a glance.
"""

from __future__ import annotations

import html
import os
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = [
    "chart_svg",
    "mesh_svg",
    "render_dashboard_html",
    "render_dashboard_text",
    "render_diff_html",
    "text_sparkline",
    "write_dashboard",
    "write_mesh_svg",
]

#: display-only cap on points per chart (charts stay ~1-2 KB each; the
#: underlying rings already bound memory, this bounds the HTML)
_MAX_POINTS = 120

_BLOCKS = "▁▂▃▄▅▆▇█"


def _fmt(v: Optional[float]) -> str:
    """Compact engineering formatting for chart labels."""
    if v is None:
        return "-"
    a = abs(v)
    if a >= 1e9:
        return f"{v / 1e9:.2f}G"
    if a >= 1e6:
        return f"{v / 1e6:.2f}M"
    if a >= 1e4:
        return f"{v / 1e3:.1f}k"
    if a == int(a):
        return str(int(a))
    return f"{v:.2f}"


def _thin(points: Sequence[Tuple[int, float]],
          limit: int = _MAX_POINTS) -> List[Tuple[int, float]]:
    """Reduce to <= limit points by chunk means (display only)."""
    n = len(points)
    if n <= limit:
        return list(points)
    out: List[Tuple[int, float]] = []
    step = (n + limit - 1) // limit
    for i in range(0, n, step):
        chunk = points[i:i + step]
        out.append((chunk[0][0],
                    sum(v for _, v in chunk) / len(chunk)))
    return out


def chart_svg(points: Sequence[Tuple[int, float]], *,
              width: int = 260, height: int = 48, color: str = "#2a7ae2",
              hline: Optional[float] = None,
              marks: Iterable[Tuple[int, str]] = ()) -> str:
    """One inline-SVG line chart.

    ``hline`` draws a dashed horizontal reference (SLO threshold);
    ``marks`` are (cycle, color) vertical event markers (breaches).
    """
    pts = _thin(points)
    marks = list(marks)
    if not pts:
        return (f'<svg width="{width}" height="{height}" '
                f'viewBox="0 0 {width} {height}">'
                f'<text x="4" y="{height - 6}" class="empty">no samples'
                f'</text></svg>')
    xs = [t for t, _ in pts]
    ys = [v for _, v in pts]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    if hline is not None:
        y_lo, y_hi = min(y_lo, hline), max(y_hi, hline)
    if y_hi <= y_lo:
        y_hi = y_lo + 1.0
    x_span = max(1, x_hi - x_lo)

    def px(t: int) -> float:
        return 2 + (width - 4) * (t - x_lo) / x_span

    def py(v: float) -> float:
        return 2 + (height - 4) * (1.0 - (v - y_lo) / (y_hi - y_lo))

    parts = [f'<svg width="{width}" height="{height}" '
             f'viewBox="0 0 {width} {height}">']
    for t, mcolor in marks:
        if x_lo <= t <= x_hi:
            x = px(t)
            parts.append(f'<line x1="{x:.1f}" y1="0" x2="{x:.1f}" '
                         f'y2="{height}" stroke="{mcolor}" '
                         f'stroke-width="1.5" opacity="0.8"/>')
    if hline is not None:
        y = py(hline)
        parts.append(f'<line x1="0" y1="{y:.1f}" x2="{width}" y2="{y:.1f}" '
                     f'stroke="#c0392b" stroke-dasharray="4 3" '
                     f'stroke-width="1"/>')
    path = " ".join(f"{px(t):.1f},{py(v):.1f}" for t, v in pts)
    parts.append(f'<polyline fill="none" stroke="{color}" '
                 f'stroke-width="1.5" points="{path}"/>')
    parts.append("</svg>")
    return "".join(parts)


def text_sparkline(points: Sequence[Tuple[int, float]],
                   width: int = 40) -> str:
    """Unicode block sparkline of a series (terminal dashboards)."""
    pts = _thin(points, width)
    if not pts:
        return "(no samples)"
    ys = [v for _, v in pts]
    lo, hi = min(ys), max(ys)
    span = hi - lo
    if span <= 0:
        return _BLOCKS[0] * len(ys)
    return "".join(
        _BLOCKS[min(len(_BLOCKS) - 1, int((v - lo) / span * len(_BLOCKS)))]
        for v in ys)


def _heat_color(frac: float) -> str:
    """White -> amber -> red ramp for occupancy shares."""
    f = max(0.0, min(1.0, frac))
    r = 255
    g = int(245 - 160 * f)
    b = int(235 - 200 * f)
    return f"rgb({r},{g},{b})"


def mesh_svg(summary, *, cell: int = 44, gap: int = 14) -> str:
    """A spatial-atlas summary as one inline-SVG mesh panel.

    Tiles are squares shaded by outbound-occupancy share (red ramp,
    normalized to the hottest tile); directed links draw as arrows
    between tile edges with width and color scaled to their share, the
    two directions of a physical channel offset to opposite sides.
    Tiles that spent cycles blocked on backpressure get a red border.
    """
    if summary is None or not summary.get("tiles"):
        return ('<svg width="200" height="40" viewBox="0 0 200 40">'
                '<text x="4" y="24" class="empty">no NoC traffic observed'
                "</text></svg>")
    w = summary["mesh"]["width"]
    h = summary["mesh"]["height"]
    tiles = summary["tiles"]
    links = summary["links"]
    pitch = cell + gap
    width = w * pitch + gap
    height = h * pitch + gap + 16

    def center(node: int) -> Tuple[float, float]:
        x, y = node % w, node // w
        return gap + x * pitch + cell / 2, gap + y * pitch + cell / 2

    tile_peak = max((e["share"] for e in tiles.values()), default=0.0) or 1.0
    link_peak = max((e["share"] for e in links.values()), default=0.0) or 1.0
    parts = [f'<svg width="{width}" height="{height}" '
             f'viewBox="0 0 {width} {height}">']
    for node_key, e in tiles.items():
        node = int(node_key)
        x, y = node % w, node // w
        px, py = gap + x * pitch, gap + y * pitch
        fill = _heat_color(e["share"] / tile_peak)
        stroke = "#c0392b" if e.get("backpressure") else "#aab7b8"
        sw = 2 if e.get("backpressure") else 1
        parts.append(f'<rect x="{px}" y="{py}" width="{cell}" '
                     f'height="{cell}" rx="4" fill="{fill}" '
                     f'stroke="{stroke}" stroke-width="{sw}"/>')
    # idle tiles still draw (faint) so the mesh shape reads correctly
    for node in range(w * h):
        if str(node) not in tiles:
            x, y = node % w, node // w
            px, py = gap + x * pitch, gap + y * pitch
            parts.append(f'<rect x="{px}" y="{py}" width="{cell}" '
                         f'height="{cell}" rx="4" fill="#ffffff" '
                         f'stroke="#eaeded" stroke-width="1"/>')
        cx, cy = center(node)
        parts.append(f'<text x="{cx:.0f}" y="{cy + 3:.0f}" '
                     f'text-anchor="middle" font-size="9" '
                     f'fill="#566573">{node}</text>')
    for key, e in sorted(links.items()):
        a_s, b_s = key.split(">")
        a, b = int(a_s), int(b_s)
        ax, ay = center(a)
        bx, by = center(b)
        dx, dy = bx - ax, by - ay
        n = (dx * dx + dy * dy) ** 0.5 or 1.0
        ux, uy = dx / n, dy / n
        # offset the two directions of one channel to opposite sides
        ox, oy = -uy * 5, ux * 5
        x1, y1 = ax + ux * cell / 2 + ox, ay + uy * cell / 2 + oy
        x2, y2 = bx - ux * cell / 2 + ox, by - uy * cell / 2 + oy
        frac = e["share"] / link_peak
        swidth = 1.0 + 5.0 * frac
        color = f"rgb({int(42 + 150 * frac)},{int(122 - 70 * frac)},226)"
        parts.append(f'<line x1="{x1:.1f}" y1="{y1:.1f}" x2="{x2:.1f}" '
                     f'y2="{y2:.1f}" stroke="{color}" '
                     f'stroke-width="{swidth:.1f}" opacity="0.85"/>')
        # arrowhead: a short chevron at the head end
        hx, hy = x2 - ux * 4, y2 - uy * 4
        parts.append(f'<circle cx="{hx:.1f}" cy="{hy:.1f}" '
                     f'r="{1.2 + 1.5 * frac:.1f}" fill="{color}"/>')
    basis = html.escape(str(summary.get("basis", "words")))
    parts.append(f'<text x="{gap}" y="{height - 4}" font-size="10" '
                 f'fill="#566573">tile/link shade = {basis} share '
                 f"(peak tile {tile_peak:.1%}, peak link {link_peak:.1%}); "
                 "red border = sender backpressure</text>")
    parts.append("</svg>")
    return "".join(parts)


def write_mesh_svg(path: str, summary, *, title: str = "") -> str:
    """Write one standalone mesh-heatmap SVG file (CI artifact)."""
    d = os.path.dirname(path)
    if d:
        os.makedirs(d, exist_ok=True)
    svg = mesh_svg(summary)
    if title:
        svg = svg.replace(
            ">", f'><title>{html.escape(title)}</title>', 1)
    with open(path, "w") as f:
        f.write('<?xml version="1.0" encoding="UTF-8"?>\n')
        f.write(svg.replace(
            "<svg ", '<svg xmlns="http://www.w3.org/2000/svg" ', 1))
    return path


def _series_groups(series) -> "List[Tuple[str, List[Any]]]":
    """Series grouped by subsystem prefix (``core.busy`` -> ``core``)."""
    groups: Dict[str, List[Any]] = {}
    for name in sorted(series):
        if name.startswith("slo."):
            continue  # burn series render in the SLO section
        if name.startswith("spatial."):
            continue  # per-link/per-tile rings render as the mesh panel
        groups.setdefault(name.split(".", 1)[0], []).append(series[name])
    return sorted(groups.items())


_CSS = """
body { font-family: -apple-system, 'Segoe UI', Roboto, sans-serif;
       margin: 1.5em auto; max-width: 1180px; color: #1c2833;
       background: #fafbfc; }
h1 { font-size: 1.4em; } h2 { font-size: 1.1em; margin: 0.3em 0; }
.note { color: #566573; font-size: 0.85em; }
details { margin: 0.6em 0; background: #fff; border: 1px solid #d5dbdb;
          border-radius: 6px; padding: 0.4em 0.8em; }
summary { cursor: pointer; font-weight: 600; }
.grid { display: grid; gap: 10px;
        grid-template-columns: repeat(auto-fill, minmax(280px, 1fr)); }
.card { border: 1px solid #e5e8e8; border-radius: 6px; padding: 6px 8px;
        background: #fdfefe; }
.card .name { font-weight: 600; font-size: 0.85em; }
.card .stats { color: #566573; font-size: 0.78em; }
.empty { fill: #aab7b8; font-size: 10px; }
.slo-ok { color: #1e8449; } .slo-bad { color: #c0392b; font-weight: 700; }
table { border-collapse: collapse; font-size: 0.85em; }
td, th { border: 1px solid #d5dbdb; padding: 3px 8px; text-align: left; }
.incident { border-left: 4px solid #c0392b; margin: 0.4em 0;
            padding: 0.2em 0.6em; background: #fdf2f0; font-size: 0.9em; }
"""


def _html_machine(rec, open_: bool) -> str:
    """One observed machine's record as a collapsible dashboard section."""
    out = [f"<details{' open' if open_ else ''}>"
           f"<summary>{html.escape(rec.label)}</summary>"]
    if rec.timeseries is None:
        out.append('<p class="note">no telemetry sampler on this machine'
                   "</p></details>")
        return "".join(out)
    series = rec.timeseries["series"]
    for prefix, series_list in _series_groups(series):
        out.append(f"<h2>{html.escape(prefix)}</h2>")
        out.append('<div class="grid">')
        for ts in series_list:
            # escape: series units are caller-supplied strings (a custom
            # source registered with unit='<i>' must not inject markup)
            unit = f" {html.escape(ts.unit)}" if ts.unit else ""
            stats = (f"mean {_fmt(ts.mean())}{unit} &middot; "
                     f"peak {_fmt(ts.peak())}{unit} &middot; "
                     f"last {_fmt(ts.last_value)}{unit}")
            if ts.wraps:
                stats += f" &middot; wraps {ts.wraps}"
            out.append(
                '<div class="card">'
                f'<div class="name">{html.escape(ts.name)}</div>'
                f"{chart_svg(ts.points())}"
                f'<div class="stats">{stats}</div></div>')
        out.append("</div>")
    s = rec.spatial
    if s is not None and (s["messages"] or s["links"]):
        out.append("<h2>mesh</h2>")
        out.append(
            '<div class="card" style="max-width:480px">'
            f"{mesh_svg(s)}"
            f'<div class="stats">{s["messages"]} msgs &middot; '
            f'{s["words"]} words &middot; {len(s["links"])} active '
            "link(s)</div></div>")
    if rec.slo:
        out.append("<h2>SLOs</h2>")
        out.append('<div class="grid">')
        marks_by_slo: Dict[str, List[Tuple[int, str]]] = {}
        for cycle, what, name in rec.slo_events:
            marks_by_slo.setdefault(name, []).append(
                (cycle, "#c0392b" if what == "breach" else "#1e8449"))
        for status in rec.slo:
            name = status["name"]
            ts = series.get(f"slo.{name}.burn")
            cls = "slo-bad" if status["breaches"] else "slo-ok"
            out.append(
                '<div class="card">'
                f'<div class="name {cls}">{html.escape(name)} '
                f'({html.escape(str(status["kind"]))} vs '
                f'{_fmt(status["target"])}) &mdash; '
                f'{status["breaches"]} breach(es)</div>'
                f"{chart_svg(ts.points() if ts is not None else [], hline=status['burn_threshold'], marks=marks_by_slo.get(name, ()))}"
                '<div class="stats">short burn '
                f'{status["burn_short"]:.2f} &middot; long burn '
                f'{status["burn_long"]:.2f} &middot; last value '
                f'{_fmt(status["last_value"])}</div></div>')
        out.append("</div>")
    out.append("</details>")
    return "".join(out)


def render_dashboard_html(session, *, title: str,
                          notes: Sequence[str] = ()) -> str:
    """The whole observed session as one self-contained HTML page."""
    machines = session.records()
    incidents = [doc for rec in machines for doc in rec.incidents]
    paths = [path for rec in machines for path in rec.incident_paths]
    breaches = sum(rec.breaches for rec in machines)
    body = [
        "<!DOCTYPE html>",
        '<html lang="en"><head><meta charset="utf-8">',
        f"<title>{html.escape(title)}</title>",
        f"<style>{_CSS}</style></head><body>",
        f"<h1>{html.escape(title)}</h1>",
        f'<p class="note">{len(machines)} observed machine(s) &middot; '
        f"{breaches} SLO breach(es) &middot; "
        f"{len(incidents)} incident(s)</p>",
    ]
    for note in notes:
        body.append(f'<p class="note">note: {html.escape(note)}</p>')
    if incidents:
        body.append("<h2>Incidents</h2>")
        for i, inc in enumerate(incidents):
            where = f" &mdash; <code>{html.escape(paths[i])}</code>" \
                if i < len(paths) else ""
            body.append(
                '<div class="incident">'
                f'<b>{html.escape(inc["reason"])}</b> at cycle '
                f'{inc["cycle"]} on {html.escape(inc["label"])}: '
                f'{html.escape(inc["detail"])}{where}</div>')
    for i, rec in enumerate(machines):
        body.append(_html_machine(rec, open_=(i < 2)))
    body.append("</body></html>")
    return "\n".join(body)


def render_dashboard_text(session, *, title: str,
                          max_machines: Optional[int] = 4) -> str:
    """Terminal dashboard: block sparklines + SLO/incident status."""
    machines = session.records()
    incidents = [doc for rec in machines for doc in rec.incidents]
    lines = [f"== {title} ==",
             f"{len(machines)} machine(s), "
             f"{sum(rec.breaches for rec in machines)} SLO "
             f"breach(es), {len(incidents)} incident(s)"]
    shown = machines if max_machines is None else machines[:max_machines]
    for rec in shown:
        lines.append(f"-- {rec.label}")
        if rec.timeseries is None:
            continue
        series = rec.timeseries["series"]
        for name in sorted(series):
            if name.startswith("spatial."):
                continue  # the atlas renders as a heatmap, not 100 rows
            ts = series[name]
            unit = f" {ts.unit}" if ts.unit else ""
            lines.append(
                f"  {name:<20s} {text_sparkline(ts.points()):<40s} "
                f"mean {_fmt(ts.mean())}{unit}  peak {_fmt(ts.peak())}{unit}")
        s = rec.spatial
        if s is not None and (s["messages"] or s["links"]):
            from repro.analysis.render import render_mesh_heatmap
            lines.append("  " + render_mesh_heatmap(
                s, top_links=3).rstrip().replace("\n", "\n  "))
        for st in rec.slo:
            flag = "BREACHED" if st["breached"] else (
                f'{st["breaches"]} breach(es)' if st["breaches"] else "ok")
            lines.append(
                f'  slo {st["name"]:<16s} [{flag}]  burn '
                f'{st["burn_short"]:.2f}/{st["burn_long"]:.2f}  '
                f'target {_fmt(st["target"])} last '
                f'{_fmt(st["last_value"])}')
    if max_machines is not None and len(machines) > max_machines:
        lines.append(f"... {len(machines) - max_machines} more machine(s) "
                     "in the HTML dashboard")
    for inc in incidents:
        lines.append(f'  incident: {inc["reason"]} at cycle {inc["cycle"]} '
                     f'({inc["detail"]}) on {inc["label"]}')
    return "\n".join(lines)


_VERDICT_CLS = {"improved": "slo-ok", "regressed": "slo-bad",
                "changed": "", "unchanged": ""}


def render_diff_html(diff: Dict[str, Any], *, title: str) -> str:
    """A ``repro diff`` verdict as a side-by-side HTML page.

    Same self-contained inline-CSS style as the run dashboards; A and B
    values sit in adjacent columns with per-metric verdict coloring, so
    a CI artifact link answers "what moved?" at a glance.
    """
    def esc(v: Any) -> str:
        return html.escape(str(v))

    a, b = diff["a"], diff["b"]
    c = diff["counts"]
    body = [
        "<!DOCTYPE html>",
        '<html lang="en"><head><meta charset="utf-8">',
        f"<title>{esc(title)}</title>",
        f"<style>{_CSS}</style></head><body>",
        f"<h1>{esc(title)}</h1>",
        f'<p class="note">A = {esc(a["label"])} &middot; '
        f'B = {esc(b["label"])} &middot; threshold '
        f'&plusmn;{diff["threshold"]:.1%}</p>',
    ]
    vcls = _VERDICT_CLS.get(diff["verdict"], "")
    body.append(f'<p><b class="{vcls}">verdict: {esc(diff["verdict"])}</b> '
                f'&mdash; {c["improved"]} improved, {c["regressed"]} '
                f'regressed, {c["changed"]} changed, {c["unchanged"]} '
                "unchanged</p>")
    if not diff["comparable"]:
        body.append('<p class="slo-bad">records not directly comparable '
                    "(machine-profile fingerprint or quick/full mode "
                    "differ)</p>")
    if diff["gate"]:
        if diff["gate_failures"]:
            body.append(f'<p class="slo-bad">gate FAIL on '
                        f'{esc(", ".join(diff["gate"]))}</p><ul>')
            body.extend(f"<li>{esc(m)}</li>" for m in diff["gate_failures"])
            body.append("</ul>")
        else:
            body.append(f'<p class="slo-ok">gate OK on '
                        f'{esc(", ".join(diff["gate"]))}</p>')
    for s in diff["series"]:
        head = (s["a_label"] if s["a_label"] == s["b_label"]
                else f'{s["a_label"]} vs {s["b_label"]}')
        body.append(f"<details open><summary>{esc(head)}</summary>")
        body.append("<table><tr><th>x</th><th>metric</th><th>A</th>"
                    "<th>B</th><th>&Delta;</th><th>verdict</th></tr>")
        for p in s["points"]:
            for name, m in sorted(p["metrics"].items()):
                cls = _VERDICT_CLS.get(m["verdict"], "")
                delta = ("&infin;" if m["delta"] in (float("inf"),
                                                     float("-inf"))
                         else f'{m["delta"]:+.1%}')
                body.append(
                    f'<tr><td>{p["x"]:g}</td><td>{esc(name)}</td>'
                    f'<td>{m["a"]:.6g}</td><td>{m["b"]:.6g}</td>'
                    f'<td>{delta}</td>'
                    f'<td class="{cls}">{esc(m["verdict"])}</td></tr>')
        body.append("</table>")
        for x in s["missing_in_b"]:
            body.append(f'<p class="slo-bad">x={x:g}: point missing in B'
                        "</p>")
        sp_points = [p for p in s["points"]
                     if p.get("spatial") is not None]
        for p in sp_points:
            sp = p["spatial"]
            movers = ", ".join(
                f'{esc(m["link"])} {m["move"]:+.1%}'
                for m in sp["top_movers"][:5]) or "none"
            body.append(
                f'<p class="note">x={p["x"]:g} spatial: '
                f'{sp["total_share_moved"]:.1%} of occupancy share moved '
                f"({esc(sp['verdict'])}); top movers: {movers}</p>")
        body.append("</details>")
    for label in diff["series_only_in_a"]:
        body.append(f'<p class="note">series only in A: {esc(label)}</p>')
    for label in diff["series_only_in_b"]:
        body.append(f'<p class="note">series only in B: {esc(label)}</p>')
    body.append("</body></html>")
    return "\n".join(body)


def write_dashboard(path: str, session, *, title: str,
                    notes: Sequence[str] = ()) -> str:
    """Render and write the HTML dashboard; returns the path."""
    d = os.path.dirname(path)
    if d:
        os.makedirs(d, exist_ok=True)
    with open(path, "w") as f:
        f.write(render_dashboard_html(session, title=title, notes=notes))
    return path
