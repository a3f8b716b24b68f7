#!/usr/bin/env python3
"""Figure 4a from the perf counter file: stall attribution by counters.

The paper's Figure 4a breaks the servicing thread's per-operation time
into execution vs. coherence stalls, read from the TILE-Gx hardware
performance counters.  This example follows that methodology for each
approach (MP-SERVER and the fixed-combiner CC-SYNCH) with the
``repro.obs`` perf counter file, which the hardware models write
directly while they run: its busy and stall registers are the cores'
own cycle registers, so the breakdown is the one ``run_counter_benchmark``
reports.  The same file then gives what the cycle registers alone
cannot -- *which cache lines* the stalls concentrate on, and the UDN
delivery-latency distribution.

Run:  python examples/profile_anatomy.py
"""

import repro.obs as obs
from repro.analysis.render import render_latency_histogram, render_line_heatmap
from repro.workload.scenarios import run_counter_benchmark


def profile(approach: str, num_threads: int = 14) -> None:
    with obs.observed() as session:
        result = run_counter_benchmark(approach, num_threads,
                                       fixed_combiner=True)
    agg = session.aggregate()

    print(f"=== {approach}, T={num_threads} " + "=" * 30)
    print(f"throughput: {result.throughput_mops:.1f} Mops/s   "
          f"latency p50/p99: {result.p50_latency_cycles:.0f}/"
          f"{result.p99_latency_cycles:.0f} cyc")
    print("Figure 4a breakdown (cycles per op on the servicing core):")
    print(f"  total={result.extra['obs.service_cycles_per_op']:7.1f}"
          f"  stalled={result.extra['obs.service_stall_per_op']:6.1f}")
    print()
    print(render_line_heatmap(agg.get("line", {}), top=8,
                              title=f"{approach}: cache-line contention"))
    if agg.get("udn_hist"):
        print(render_latency_histogram(
            agg["udn_hist"], title=f"{approach}: UDN delivery latency"))


def main() -> None:
    profile("mp-server")
    profile("CC-Synch")


if __name__ == "__main__":
    main()
