"""``python -m repro`` -- top-level command-line interface.

Subcommands:

* ``info``        -- package, machine profiles, experiment registry
* ``quickstart``  -- the counter shootout at one concurrency level
* ``run``         -- the experiment runner:
  ``run EXP... [--full] [--jobs N] [--out DIR] [--obs SPEC]`` prints
  each figure under a header with its host cost (points, simulator
  events, wall time, events/s); ``--obs`` observes every machine the
  sweeps build -- counters, traces, critical path, dashboards with SLOs
  and incident bundles, cProfile (see :mod:`repro.experiments.registry`)
* ``diff``        -- compare two benchmark records (``BENCH_*.json`` or
  figure JSON) metric by metric; deterministic verdict, optional gate
* ``explore``     -- forwarded to ``repro.explore.cli`` (schedule search)
"""

from __future__ import annotations

import argparse
import os
import sys


def cmd_info(_args) -> int:
    import repro
    from repro.experiments import EXPERIMENTS
    from repro.machine import scc_like, tile_gx, x86_like

    print(f"repro {repro.__version__} -- reproduction of Petrovic et al., "
          f"PPoPP 2014")
    print("\nmachine profiles:")
    for cfg in (tile_gx(), x86_like(), scc_like()):
        feats = []
        if cfg.has_udn:
            feats.append("hw message passing")
        if cfg.has_coherent_shm:
            feats.append("coherent shm")
        feats.append(f"atomics@{cfg.atomic_at}")
        print(f"  {cfg.name:<12s} {cfg.num_cores:>3d} cores @ "
              f"{cfg.clock_mhz} MHz   [{', '.join(feats)}]")
    print("\nexperiments (python -m repro run <id> [--full]):")
    for exp_id in EXPERIMENTS:
        print(f"  {exp_id}")
    print("\napproaches: mp-server, HybComb, shm-server, CC-Synch")
    print("objects: counter, MS-Queue (1/2-lock), LCRQ, stack, Treiber, "
          "elimination stack")
    return 0


def cmd_quickstart(args) -> int:
    from repro.workload import WorkloadSpec, run_counter_benchmark

    spec = WorkloadSpec()
    print(f"concurrent counter, {args.threads} threads, simulated "
          f"TILE-Gx @ 1.2 GHz")
    for approach in ("mp-server", "HybComb", "shm-server", "CC-Synch"):
        r = run_counter_benchmark(approach, args.threads, spec=spec)
        print(f"  {approach:>11s}: {r.throughput_mops:6.1f} Mops/s   "
              f"latency {r.mean_latency_cycles:6.0f} cycles")
    return 0


def cmd_diff(args) -> int:
    """Compare two benchmark/figure records; print a structured verdict."""
    from repro.analysis.diff import (diff_records, diff_to_json, load_record,
                                     render_diff_text)

    try:
        a = load_record(args.a)
        b = load_record(args.b)
    except (OSError, KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    gate = tuple(args.gate) if args.gate else ()
    diff = diff_records(a, b, threshold=args.threshold, gate=gate)
    if args.json:
        print(diff_to_json(diff))
    else:
        print(render_diff_text(diff, show_unchanged=args.show_unchanged))
    if args.html:
        from repro.analysis.dashboard import render_diff_html
        d = os.path.dirname(args.html)
        if d:
            os.makedirs(d, exist_ok=True)
        with open(args.html, "w") as f:
            f.write(render_diff_html(
                diff, title=f"repro diff: {a['label']} vs {b['label']}"))
        print(f"[diff page written to {args.html}]", file=sys.stderr)
    if gate and diff["gate_failures"]:
        return 1
    return 0


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # forward `explore` wholesale so its flags keep working
    if argv and argv[0] == "explore":
        from repro.explore.cli import main as explore_main
        return explore_main(argv[1:])
    from repro.experiments import registry

    parser = argparse.ArgumentParser(prog="python -m repro")
    sub = parser.add_subparsers(dest="cmd")
    sub.add_parser("info", help="package and registry overview")
    q = sub.add_parser("quickstart", help="counter shootout")
    q.add_argument("threads", nargs="?", type=int, default=20)
    run = sub.add_parser(
        "run", help="reproduce figures, optionally observed (--obs)",
        description="Reproduce figures from the paper's evaluation.")
    run.add_argument("experiments", nargs="*", metavar="EXP",
                     type=registry.experiment_id,
                     help=f"ids to run (default: all): "
                          f"{sorted(registry.EXPERIMENTS)}")
    run.add_argument("--full", action="store_true",
                     help="use the large windows/sweeps (slow)")
    run.add_argument("--jobs", type=int, default=None, metavar="N",
                     help="run sweep points across N worker processes "
                          "(default: REPRO_JOBS or serial); results merge "
                          "in deterministic submission order, so figures "
                          "are identical to a serial run")
    run.add_argument("--out", metavar="DIR",
                     help="write <exp>.csv and every --obs export here "
                          "(default: write nothing)")
    run.add_argument("--obs", metavar="SPEC", type=registry.parse_obs,
                     default={},
                     help="comma list of: counters, trace, critpath[=K], "
                          "latencies, report, profile[=N] "
                          "(e.g. trace,critpath=15)")
    dif = sub.add_parser(
        "diff",
        help="compare two benchmark records (BENCH_*.json or figure "
             "JSON) metric by metric with a deterministic verdict")
    dif.add_argument("a", metavar="A[:SERIES]",
                     help="baseline record; append :SERIES to pick one "
                          "curve of a multi-series benchmark file")
    dif.add_argument("b", metavar="B[:SERIES]", help="candidate record")
    dif.add_argument("--threshold", type=float, default=0.05, metavar="FRAC",
                     help="relative change below which a metric counts as "
                          "unchanged (default: 0.05)")
    dif.add_argument("--json", action="store_true",
                     help="emit the full structured diff as JSON")
    dif.add_argument("--html", metavar="PATH",
                     help="also write a side-by-side HTML diff page")
    dif.add_argument("--gate", action="append", metavar="METRIC",
                     help="exit 1 if METRIC regressed anywhere (repeatable, "
                          "e.g. --gate throughput_mops)")
    dif.add_argument("--show-unchanged", action="store_true",
                     help="list unchanged metrics too in the text report")
    sub.add_parser("explore", help="adversarial schedule search "
                                   "(see python -m repro explore -h)")
    args = parser.parse_args(argv)
    if args.cmd == "info" or args.cmd is None:
        return cmd_info(args)
    if args.cmd == "quickstart":
        return cmd_quickstart(args)
    if args.cmd == "run":
        return registry.run_experiments(args.experiments, args.obs,
                                        full=args.full, jobs=args.jobs,
                                        out=args.out)
    if args.cmd == "diff":
        return cmd_diff(args)
    parser.print_help()
    return 1


if __name__ == "__main__":
    sys.exit(main())
