"""Experiment registry and the one experiment runner.

``python -m repro run fig3a fig5b`` runs selected experiments through
:func:`run_experiments`; with no ids it runs all of them.  Each one
prints a header line with its host cost (points, simulator events, wall
time, events/s), then its figure.  ``--full`` switches to the larger
windows/sweeps used for EXPERIMENTS.md; ``--out DIR`` writes each
figure's data as ``<exp>.csv`` plus every file ``--obs`` asks for
(without ``--out`` nothing is written).

``--obs SPEC`` is a comma list of :data:`OBS_WORDS`, parsed once by
:func:`parse_obs` into one :func:`repro.obs.observed` session per
experiment; one export pass after each run then prints and writes:

* ``counters`` -- perf counters and the spatial atlas (DESIGN.md §9,
  §15): contention heatmaps and the hotspot report on the terminal,
  ``<exp>-metrics.csv`` and ``<exp>-mesh.svg``;
* ``trace`` -- ``counters`` plus every machine's event log, merged into
  ``<exp>-trace.json`` (open in https://ui.perfetto.dev);
* ``critpath[=K]`` -- ``counters`` plus the event logs ``trace``
  records (without writing them) and hop-by-hop link attribution:
  per-op blame and the whole-run critical path (DESIGN.md §10),
  ``<exp>-critpath.txt`` (with a HYBCOMB/CC-SYNCH diff when both ran);
  ``=K`` adds the K slowest ops, ``<exp>-stragglers.txt``;
* ``latencies`` -- every raw per-op latency sample,
  ``<exp>-latencies.csv`` (full CDFs);
* ``report`` -- counters plus time series, the experiment's default
  SLOs (:func:`slos_for`), the flight recorder (incident bundles under
  ``incidents/<exp>``) and hop attribution (DESIGN.md §14): a terminal
  dashboard and ``<exp>-dashboard.html``;
* ``profile[=N]`` -- cProfile over a serial run, printing the top N
  (default 25) functions by self time.
"""

from __future__ import annotations

import argparse
import cProfile
import os
import pstats
import sys
import time
from contextlib import nullcontext
from typing import Callable, Dict, Optional, Sequence

import repro.obs as obs_mod
from repro.analysis.critpath import analyze_collector
from repro.analysis.render import (
    ascii_chart,
    bar_chart,
    markdown_table,
    render_blame_breakdown,
    render_critpath_diff,
    render_latency_histogram,
    render_line_heatmap,
    render_mesh_heatmap,
    render_stragglers,
    render_truncation,
    to_csv,
)
from repro.analysis.series import FigureData
from repro.experiments.discussion import (
    run_backpressure,
    run_noc_ablation,
    run_oversubscription,
    run_scc_comparison,
    run_x86_comparison,
)
from repro.experiments.faults import run_fault_recovery
from repro.experiments.fig3 import run_fig3a, run_fig3b, run_fig3c
from repro.experiments.overload import overload_slos, run_overload
from repro.experiments.fig4 import run_fig4a, run_fig4b, run_fig4c
from repro.experiments.fig5 import run_fig5a, run_fig5b
from repro.experiments.scale import run_scale, run_scale_smoke

__all__ = ["EXPERIMENTS", "OBS_WORDS", "experiment_id", "parse_obs",
           "run_experiment", "run_experiments", "slos_for"]

EXPERIMENTS: Dict[str, Callable[..., FigureData]] = {
    "fig3a": run_fig3a,
    "fig3b": run_fig3b,
    "fig3c": run_fig3c,
    "fig4a": run_fig4a,
    "fig4b": run_fig4b,
    "fig4c": run_fig4c,
    "fig5a": run_fig5a,
    "fig5b": run_fig5b,
    "disc-x86": run_x86_comparison,
    "disc-scc": run_scc_comparison,
    "disc-oversub": run_oversubscription,
    "disc-backpressure": run_backpressure,
    "disc-noc": run_noc_ablation,
    "disc-faults": run_fault_recovery,
    "overload": run_overload,
    "scale": run_scale,
    "scale-smoke": run_scale_smoke,
}


def slos_for(exp_id: str) -> Sequence[obs_mod.SLO]:
    """Default SLO set ``--obs report`` monitors for one experiment."""
    if exp_id == "overload":
        return overload_slos()
    # closed-loop figures: a loose op-latency objective that healthy
    # runs satisfy -- a breach here means the run itself went sideways
    return (obs_mod.SLO("op-p99", kind="latency", target=100_000.0),)


#: ``--obs`` word -> the :func:`repro.obs.observed` options it turns on
#: (a spec's words combine by union; ``report`` adds its SLOs and
#: incident directory per experiment)
OBS_WORDS: Dict[str, Dict[str, bool]] = {
    "counters": {"spatial": True},
    "trace": {"spatial": True, "trace": True},
    "critpath": {"spatial": True, "trace": True, "spatial_hops": True},
    "latencies": {},
    "report": {"spatial": True, "spatial_hops": True, "timeseries": True,
               "flight": True},
    "profile": {},
}


def parse_obs(spec: str) -> Dict[str, Optional[int]]:
    """``"trace,critpath=15"`` -> ``{"trace": None, "critpath": 15}``.

    An unknown word, a value on a word that takes none, or a count
    below 1 raises :class:`argparse.ArgumentTypeError` naming the word,
    so ``--obs`` exits 2 with it.
    """
    words: Dict[str, Optional[int]] = {}
    for item in spec.split(","):
        word, eq, value = item.partition("=")
        if word not in OBS_WORDS:
            raise argparse.ArgumentTypeError(
                f"unknown word {word!r}; choose from {', '.join(OBS_WORDS)}")
        count = None
        if eq:
            if word not in ("critpath", "profile"):
                raise argparse.ArgumentTypeError(f"{word!r} takes no value")
            count = int(value) if value.isdecimal() else 0
            if count < 1:
                raise argparse.ArgumentTypeError(
                    f"{item!r}: {word} takes a whole number >= 1")
        words[word] = count
    return words


def experiment_id(exp_id: str) -> str:
    """Argparse type of an experiment id: a registered one."""
    if exp_id not in EXPERIMENTS:
        raise argparse.ArgumentTypeError(
            f"unknown experiment {exp_id!r}; choose from {sorted(EXPERIMENTS)}")
    return exp_id


#: which metric each figure plots
_METRIC = {
    "fig3b": lambda r: r.mean_latency_cycles,
    "fig4b": lambda r: r.combining_rate or 0.0,
    "fig4c": lambda r: r.cycles_per_op,
    "overload": lambda r: r.p99_latency_cycles,
}


def metric_for(figure_id: str):
    return _METRIC.get(figure_id, lambda r: r.throughput_mops)


def run_experiment(exp_id: str, quick: bool = True,
                   jobs: "int | None" = None) -> FigureData:
    try:
        fn = EXPERIMENTS[exp_id]
    except KeyError:
        raise ValueError(
            f"unknown experiment {exp_id!r}; choose from {sorted(EXPERIMENTS)}"
        ) from None
    return fn(quick=quick, jobs=jobs)


def render(fig: FigureData) -> str:
    metric = metric_for(fig.figure_id)
    if fig.figure_id == "fig4a":
        labels = fig.labels()
        stalled = [metric_stall(fig, lbl) for lbl in labels]
        total = [metric_total(fig, lbl) for lbl in labels]
        body = bar_chart(labels, {"stalled": stalled, "total": total},
                         title=fig.title)
    else:
        body = ascii_chart(fig, metric)
    table = markdown_table(fig, metric)
    notes = "".join(f"note: {n}\n" for n in fig.notes)
    return f"{body}\n{table}{notes}"


def metric_stall(fig: FigureData, label: str) -> float:
    (_x, r), = fig.series[label].points
    return r.service_stall_per_op


def metric_total(fig: FigureData, label: str) -> float:
    (_x, r), = fig.series[label].points
    return r.service_cycles_per_op


#: the columns of ``<exp>.csv``
_CSV_METRICS = {
    "throughput_mops": lambda r: r.throughput_mops,
    "latency_cycles": lambda r: r.mean_latency_cycles,
    "latency_p50": lambda r: r.p50_latency_cycles,
    "latency_p99": lambda r: r.p99_latency_cycles,
    "cycles_per_op": lambda r: r.cycles_per_op,
    "combining_rate": lambda r: r.combining_rate or 0.0,
    "svc_cycles_per_op": lambda r: r.service_cycles_per_op,
    "svc_stall_per_op": lambda r: r.service_stall_per_op,
    "cas_per_op": lambda r: r.cas_per_op,
    "time_to_recovery_cycles": lambda r: (
        r.time_to_recovery_cycles
        if r.time_to_recovery_cycles is not None else 0.0),
    "ops_retried": lambda r: float(r.ops_retried),
    "duplicates_suppressed": lambda r: float(r.duplicates_suppressed),
    "failovers": lambda r: float(r.failovers),
    # overload extras (zero for closed-loop figures)
    "latency_p999": lambda r: r.p999_latency_cycles,
    "offered_mops": lambda r: r.offered_mops,
    "goodput_mops": lambda r: r.goodput_mops,
    "shed_ops": lambda r: float(r.shed_ops),
    "dispatch_timeouts": lambda r: float(r.dispatch_timeouts),
    "retries": lambda r: float(r.retries),
    "time_in_slo": lambda r: (
        r.time_in_slo if r.time_in_slo is not None else 1.0),
    "qdepth_max": lambda r: r.extra.get("ol.qdepth_max", 0.0),
}


def run_experiments(ids: Sequence[str], obs: Dict[str, Optional[int]], *,
                    full: bool = False, jobs: Optional[int] = None,
                    out: Optional[str] = None) -> int:
    """Run ``ids`` (all when empty) under the parsed ``--obs`` spec.

    Sweeps run serially under ``profile``, whose numbers must cover the
    work, not the wait on a worker pool.
    """
    options: Dict[str, object] = {}
    for word in obs:
        options.update(OBS_WORDS[word])
    if out:
        os.makedirs(out, exist_ok=True)
    for exp_id in ids or EXPERIMENTS:
        if "report" in obs:
            options["slos"] = slos_for(exp_id)
            options["incident_dir"] = (os.path.join(out, "incidents", exp_id)
                                       if out else None)
        prof = cProfile.Profile() if "profile" in obs else None
        with (obs_mod.observed(**options) if options
              else nullcontext()) as session, prof or nullcontext():
            t0 = time.perf_counter()
            fig = run_experiment(exp_id, quick=not full,
                                 jobs=jobs if prof is None else 1)
            wall = time.perf_counter() - t0
        points = [r for s in fig.series.values() for _x, r in s.points]
        events = sum(r.host_events_processed for r in points)
        line = (f"=== {exp_id}: {len(points)} points, {events} simulator "
                f"events in {wall:.2f}s wall")
        if wall > 0 and events:
            line += f" ({events / wall / 1e6:.2f}M events/sec)"
        if prof is not None:
            line += "  [under cProfile: wall time is inflated]"
        print(line + " ===")
        print(render(fig))
        _save(out, f"{exp_id}.csv", "csv", to_csv(fig, _CSV_METRICS))
        if session is not None:
            _export_obs(session, exp_id, out, trace="trace" in obs)
        if "critpath" in obs:
            _export_critpath(session, exp_id, out, obs["critpath"])
        if "latencies" in obs:
            _export_latencies(fig, exp_id, out)
        if "report" in obs:
            _export_report(session, fig, exp_id, out)
        if prof is not None:
            stats = pstats.Stats(prof, stream=sys.stdout)
            stats.strip_dirs().sort_stats("tottime").print_stats(
                obs["profile"] or 25)
    return 0


def _save(out: Optional[str], name: str, what: str, text: str) -> None:
    """Write one export under ``out`` (nothing without ``--out``)."""
    if out:
        path = os.path.join(out, name)
        with open(path, "w") as f:
            f.write(text)
        print(f"[{what} written to {path}]")


def _export_obs(session, exp_id: str, out: Optional[str],
                trace: bool = False) -> None:
    """Print counter heatmaps + hotspots; write counters, mesh, trace."""
    records = session.records()
    if not records:
        return
    agg = session.aggregate()
    print(render_line_heatmap(agg.get("line", {}),
                              title=f"{exp_id}: cache-line contention"))
    if agg.get("udn_hist"):
        print(render_latency_histogram(agg["udn_hist"],
                                       title=f"{exp_id}: UDN delivery latency"))
    spatial = session.spatial_summary()
    if spatial is not None and spatial.get("tiles"):
        from repro.analysis.dashboard import write_mesh_svg
        from repro.obs.spatial import causal_link_flows, render_hotspots
        print(render_mesh_heatmap(spatial,
                                  title=f"{exp_id}: NoC congestion atlas"))
        # join link occupancy with the ops that crossed each link; the
        # event log carries the op context, so flows only resolve on
        # traced runs.  One machine's flows suffice for attribution
        # (the busiest machine dominates the merged atlas anyway).
        flows, partial = None, ""
        traced = [rec for rec in records
                  if rec.trace is not None and rec.trace.events
                  and rec.spatial is not None]
        if traced:
            busiest = max(traced, key=lambda rec: rec.spatial["messages"])
            flows = causal_link_flows(busiest.spatial, busiest.trace)
            partial = render_truncation(busiest.trace)
        print(render_hotspots(spatial, k=5, flows=flows))
        if partial:
            print(f"  ops {partial}", end="")
        if out:
            spath = write_mesh_svg(os.path.join(out, f"{exp_id}-mesh.svg"),
                                   spatial,
                                   title=f"{exp_id}: NoC congestion atlas")
            print(f"[mesh heatmap written to {spath}]")
    _save(out, f"{exp_id}-metrics.csv", "perf counters", session.metrics_csv())
    if trace and out:
        tpath = os.path.join(out, f"{exp_id}-trace.json")
        n = session.export_chrome_trace(tpath)
        print(f"[{n} trace events written to {tpath} -- "
              f"open in https://ui.perfetto.dev]")


def _export_critpath(session, exp_id: str, out: Optional[str],
                     k_stragglers: Optional[int]) -> None:
    """Analyze event logs; print + write blame/straggler reports.

    A sweep builds one machine per (approach, thread-count) point;
    analyzing every point would drown the terminal, so only the
    highest-thread-count machine of each approach is reported (the
    contended regime the paper's argument is about).
    """
    best = {}  # series name -> (thread count, ObsRecord)
    for rec in session.records():
        if rec.trace is None or not rec.trace.events:
            continue
        name, _, tpart = rec.label.rpartition(" T=")
        try:
            n = int(tpart)
        except ValueError:
            name, n = rec.label, 0
        cur = best.get(name)
        if cur is None or n > cur[0]:
            best[name] = (n, rec)
    if not best:
        return
    reports = {name: analyze_collector(rec.trace, label=rec.label)
               for name, (_n, rec) in sorted(best.items())}
    chunks = [render_blame_breakdown(rep) for rep in reports.values()]
    # the README's A/B example: HYBCOMB vs CC-SYNCH when both ran
    hyb = next((r for n, r in reports.items() if "hyb" in n.lower()), None)
    cc = next((r for n, r in reports.items() if "cc-" in n.lower()), None)
    if hyb is not None and cc is not None:
        chunks.append(render_critpath_diff(hyb, cc))
    text = "\n".join(chunks)
    print(text)
    _save(out, f"{exp_id}-critpath.txt", "critical-path report", text)
    if k_stragglers is not None:
        stext = "\n".join(render_stragglers(rep, k_stragglers)
                          for rep in reports.values())
        print(stext)
        _save(out, f"{exp_id}-stragglers.txt", "straggler table", stext)


def _export_latencies(fig: FigureData, exp_id: str,
                      out: Optional[str]) -> None:
    """Dump raw per-op latency samples as long-format CSV."""
    rows = [f"{label},{x:g},{v}\n" for label, s in fig.series.items()
            for x, r in s.points for v in r.latency_samples or ()]
    _save(out, f"{exp_id}-latencies.csv", "latency samples",
          "series,x,latency_cycles\n" + "".join(rows))


def _export_report(session, fig: FigureData, exp_id: str,
                   out: Optional[str]) -> None:
    """Print the terminal dashboard; write the HTML one."""
    from repro.analysis.dashboard import render_dashboard_text, write_dashboard
    title = f"{exp_id}: {fig.title}"
    print(render_dashboard_text(session, title=title))
    if out:
        path = write_dashboard(os.path.join(out, f"{exp_id}-dashboard.html"),
                               session, title=title, notes=fig.notes)
        print(f"[dashboard written to {path}]")
    dumped = sum(len(rec.incident_paths) for rec in session.records())
    if dumped:
        print(f"[{dumped} incident bundle(s) under "
              f"{os.path.join(out, 'incidents', exp_id)}]")
