"""Experiment registry and command-line entry point.

``python -m repro.experiments fig3a fig5b`` runs selected experiments;
with no arguments it runs all of them.  ``--full`` switches to the
larger windows/sweeps used for EXPERIMENTS.md; ``--csv DIR`` exports
each figure's data.

Observability (see DESIGN.md §9): ``--perf`` prints per-experiment
contention heatmaps / UDN latency histograms and writes the aggregated
perf-counter file as ``<exp>-metrics.csv``; ``--trace`` additionally
records every machine's event log and writes a merged Chrome/Perfetto
``<exp>-trace.json`` (open in https://ui.perfetto.dev).  Both write
under ``--trace-out DIR`` (default ``traces/``).

Causal tracing (DESIGN.md §10): ``--critpath`` records the same event
logs (without writing the trace file) and reconstructs per-op
blame and the whole-run critical path (``<exp>-critpath.txt``, plus a
HYBCOMB/CC-SYNCH diff when both ran); ``--stragglers [K]`` adds the K
slowest ops with their dominant blame category; ``--latency-dump``
writes every raw latency sample for full-CDF analysis.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from typing import Callable, Dict

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
from repro.experiments.overload import run_overload
from repro.experiments.fig4 import run_fig4a, run_fig4b, run_fig4c
from repro.experiments.fig5 import run_fig5a, run_fig5b
from repro.experiments.scale import run_scale, run_scale_smoke

__all__ = ["EXPERIMENTS", "run_experiment", "main"]

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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Reproduce figures from the paper's evaluation.",
    )
    parser.add_argument("experiments", nargs="*", default=[],
                        help=f"ids to run (default: all): {sorted(EXPERIMENTS)}")
    parser.add_argument("--full", action="store_true",
                        help="use the large windows/sweeps (slow)")
    parser.add_argument("--jobs", type=int, default=None, metavar="N",
                        help="run sweep points across N worker processes "
                             "(default: REPRO_JOBS or serial); results merge "
                             "in deterministic submission order, so figures "
                             "are identical to a serial run")
    parser.add_argument("--csv", metavar="DIR", default=None,
                        help="also export each figure's data as CSV")
    parser.add_argument("--perf", action="store_true",
                        help="collect perf counters; print heatmaps and "
                             "write <exp>-metrics.csv under --trace-out")
    parser.add_argument("--trace", action="store_true",
                        help="record a Chrome/Perfetto trace per experiment "
                             "(implies --perf)")
    parser.add_argument("--trace-out", metavar="DIR", default="traces",
                        help="directory for trace/metrics files "
                             "(default: traces)")
    parser.add_argument("--critpath", action="store_true",
                        help="per-op causal tracing: print critical-path "
                             "blame breakdowns and an A/B diff, and write "
                             "<exp>-critpath.txt (implies --perf)")
    parser.add_argument("--stragglers", metavar="K", nargs="?", type=int,
                        const=10, default=None,
                        help="report the K slowest ops with their dominant "
                             "blame category (default K=10; implies "
                             "--critpath); writes <exp>-stragglers.txt")
    parser.add_argument("--latency-dump", action="store_true",
                        help="write every raw per-op latency sample as "
                             "<exp>-latencies.csv (full CDFs)")
    args = parser.parse_args(argv)
    if args.stragglers is not None:
        args.critpath = True
    if args.trace or args.critpath:
        args.perf = True

    ids = args.experiments or list(EXPERIMENTS)
    unknown = [e for e in ids if e not in EXPERIMENTS]
    if unknown:
        parser.error(f"unknown experiment(s) {unknown}; choose from {sorted(EXPERIMENTS)}")
    if args.perf and (args.jobs or 0) > 1:
        print("note: --perf/--trace/--critpath observe machines in-process; "
              "running serially (ignoring --jobs)")
        args.jobs = 1
    session = (obs_mod.enable(trace=args.trace or args.critpath,
                              spatial=True, spatial_hops=args.critpath)
               if args.perf else None)
    try:
        for exp_id in ids:
            if session is not None:
                session.reset()
            t0 = time.time()
            fig = run_experiment(exp_id, quick=not args.full, jobs=args.jobs)
            dt = time.time() - t0
            print(f"=== {exp_id} ({dt:.1f}s) " + "=" * 40)
            print(render(fig))
            if session is not None:
                _export_obs(session, exp_id, args.trace_out, args.trace)
            if args.critpath:
                _export_critpath(session, exp_id, args.trace_out,
                                 args.stragglers)
            if args.latency_dump:
                _export_latencies(fig, exp_id, args.trace_out)
            if args.csv:
                os.makedirs(args.csv, exist_ok=True)
                path = os.path.join(args.csv, f"{exp_id}.csv")
                metrics = {
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
                with open(path, "w") as f:
                    f.write(to_csv(fig, metrics))
                print(f"[csv written to {path}]")
    finally:
        if session is not None:
            obs_mod.disable()
    return 0


def _export_obs(session, exp_id: str, out_dir: str, trace: bool) -> None:
    """Write one experiment's perf counter file (+ optional trace)."""
    if not session.machines:
        return
    os.makedirs(out_dir, exist_ok=True)
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
        traced = [ob for ob in session.machines
                  if ob.trace is not None and ob.trace.events
                  and ob.spatial is not None]
        if traced:
            busiest = max(traced,
                          key=lambda ob: ob.spatial.summary()["messages"])
            flows = causal_link_flows(busiest.spatial, busiest.trace)
            partial = render_truncation(busiest.trace)
        print(render_hotspots(spatial, k=5, flows=flows))
        if partial:
            print(f"  ops {partial}", end="")
        spath = write_mesh_svg(os.path.join(out_dir, f"{exp_id}-mesh.svg"),
                               spatial,
                               title=f"{exp_id}: NoC congestion atlas")
        print(f"[mesh heatmap written to {spath}]")
    mpath = os.path.join(out_dir, f"{exp_id}-metrics.csv")
    with open(mpath, "w") as f:
        f.write(session.metrics_csv())
    print(f"[perf counters written to {mpath}]")
    if trace:
        tpath = os.path.join(out_dir, f"{exp_id}-trace.json")
        n = session.export_chrome_trace(tpath)
        print(f"[{n} trace events written to {tpath} -- "
              f"open in https://ui.perfetto.dev]")


def _export_critpath(session, exp_id: str, out_dir: str,
                     k_stragglers) -> None:
    """Analyze event logs; print + write blame/straggler reports.

    A sweep builds one machine per (approach, thread-count) point;
    analyzing every point would drown the terminal, so only the
    highest-thread-count machine of each approach is reported (the
    contended regime the paper's argument is about).
    """
    best = {}  # series name -> (thread count, Observability)
    for ob in session.machines:
        if ob.trace is None or not ob.trace.events:
            continue
        name, _, tpart = ob.label.rpartition(" T=")
        try:
            n = int(tpart)
        except ValueError:
            name, n = ob.label, 0
        cur = best.get(name)
        if cur is None or n > cur[0]:
            best[name] = (n, ob)
    if not best:
        return
    os.makedirs(out_dir, exist_ok=True)
    reports = {name: analyze_collector(ob.trace, label=ob.label)
               for name, (_n, ob) in sorted(best.items())}
    chunks = [render_blame_breakdown(rep) for rep in reports.values()]
    # the README's A/B example: HYBCOMB vs CC-SYNCH when both ran
    hyb = next((r for n, r in reports.items() if "hyb" in n.lower()), None)
    cc = next((r for n, r in reports.items() if "cc-" in n.lower()), None)
    if hyb is not None and cc is not None:
        chunks.append(render_critpath_diff(hyb, cc))
    text = "\n".join(chunks)
    print(text)
    cpath = os.path.join(out_dir, f"{exp_id}-critpath.txt")
    with open(cpath, "w") as f:
        f.write(text)
    print(f"[critical-path report written to {cpath}]")
    if k_stragglers is not None:
        stext = "\n".join(render_stragglers(rep, k_stragglers)
                          for rep in reports.values())
        print(stext)
        spath = os.path.join(out_dir, f"{exp_id}-stragglers.txt")
        with open(spath, "w") as f:
            f.write(stext)
        print(f"[straggler table written to {spath}]")


def _export_latencies(fig, exp_id: str, out_dir: str) -> None:
    """Dump raw per-op latency samples as long-format CSV."""
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"{exp_id}-latencies.csv")
    with open(path, "w") as f:
        f.write("series,x,latency_cycles\n")
        for label, s in fig.series.items():
            for x, r in s.points:
                for v in r.latency_samples or ():
                    f.write(f"{label},{x:g},{v}\n")
    print(f"[latency samples written to {path}]")


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
