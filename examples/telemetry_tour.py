#!/usr/bin/env python3
"""Tour of the continuous-telemetry stack (DESIGN.md §14-§15).

One observed run of the mp-server counter benchmark with every layer on:

* **time series** -- the engine clock samples core/cache/UDN gauges and
  goodput counters into fixed-memory ring buffers every 512 cycles;
* **SLO monitors** -- a realistic p99-latency objective plus one that is
  impossible to meet, so you can watch a burn-rate alert fire mid-run;
* **flight recorder** -- the SLO breach triggers a JSON incident bundle
  holding the recent event tail, counter snapshot, and telemetry tail;
* **spatial atlas** -- per-link/per-tile NoC traffic rendered as a
  terminal mesh heatmap with a top-K hotspot report;
* **dashboard** -- the same data rendered as terminal sparklines and a
  self-contained HTML page;
* **diff** -- a second run at different concurrency compared against
  the first with ``repro.analysis.diff`` (the engine behind
  ``python -m repro diff A B``).

Run:  python examples/telemetry_tour.py [out_dir]

(Equivalent one-liners for the real experiments:
 ``python -m repro run fig3a overload --obs report --out DIR`` and
 ``python -m repro diff BENCH_a.json BENCH_b.json``.)
"""

import os
import sys

import repro.obs as obs
from repro.analysis.dashboard import render_dashboard_text, write_dashboard, write_mesh_svg
from repro.analysis.diff import diff_records, record_from_results, render_diff_text
from repro.analysis.render import render_mesh_heatmap
from repro.obs import SLO
from repro.obs.spatial import render_hotspots
from repro.workload.driver import WorkloadSpec
from repro.workload.scenarios import run_counter_benchmark


def main() -> None:
    out = sys.argv[1] if len(sys.argv) > 1 else "telemetry-tour"
    slos = (
        # a loose objective a healthy run satisfies
        SLO("op-p99", kind="latency", target=50_000.0),
        # an impossible one, to demonstrate breach -> incident dump
        SLO("op-p50-1cyc", kind="latency", target=1.0, quantile=0.5),
    )
    spec = WorkloadSpec(warmup_cycles=10_000, measure_cycles=80_000)
    with obs.observed(timeseries=True, sample_every=512, slos=slos,
                      flight=True, spatial=True,
                      incident_dir=os.path.join(out, "incidents")) as session:
        result = run_counter_benchmark("mp-server", 10, spec=spec)

    (rec,) = session.records()
    print(render_dashboard_text(session, title="telemetry tour: mp-server"))
    print(f"run: {result.ops} ops at {result.throughput_mops:.1f} Mops/s")

    tel = rec.timeseries
    busy = tel["series"]["core.busy"]
    print(f"sampled {tel['ticks']} windows of {tel['every']} cycles; "
          f"core.busy mean {busy.mean():.2f} peak {busy.peak():.2f}")

    for cycle, what, name in rec.slo_events:
        print(f"SLO {what:>7s}: {name} at cycle {cycle}")
    for path in rec.incident_paths:
        print(f"incident bundle: {path}")

    # -- the spatial atlas: where on the mesh did the cycles go? ----------
    atlas = session.spatial_summary()
    print()
    print(render_mesh_heatmap(atlas))
    print(render_hotspots(atlas, k=5))
    svg = write_mesh_svg(os.path.join(out, "mesh.svg"), atlas,
                         title="telemetry tour: mp-server")
    print(f"mesh heatmap: {svg}")

    page = write_dashboard(os.path.join(out, "dashboard.html"), session,
                           title="telemetry tour: mp-server",
                           notes=("generated by examples/telemetry_tour.py",))
    print(f"dashboard: {page}")

    # -- differential analysis: the same workload at half the threads -----
    with obs.observed(timeseries=True, sample_every=512,
                      spatial=True) as half_session:
        half = run_counter_benchmark("mp-server", 5, spec=spec)
    (half_rec,) = half_session.records()
    diff = diff_records(
        record_from_results("mp-server T=10", [(10.0, result, rec)]),
        record_from_results("mp-server T=5", [(10.0, half, half_rec)]))
    print()
    print(render_diff_text(diff))


if __name__ == "__main__":
    main()
