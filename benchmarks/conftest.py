"""Shared infrastructure for the benchmark harness.

Each ``benchmarks/test_bench_*.py`` module regenerates one figure of the
paper's evaluation: it runs the corresponding experiment (timed under
pytest-benchmark), prints the same series the paper plots, and asserts
the qualitative *shapes* the paper reports (who wins, by roughly what
factor, where the crossovers and saturation points fall).  Absolute
numbers are not asserted against the paper -- the substrate is a
simulator, not the authors' TILE-Gx -- but every shape claim from
Section 5 is.

Set ``REPRO_BENCH_FULL=1`` to run with the larger measurement windows
and denser sweeps used to produce EXPERIMENTS.md (minutes instead of
seconds).  Set ``REPRO_JOBS=N`` to fan sweep points out over N worker
processes (see ``repro.experiments.parallel``); the simulated numbers
are identical either way, only wall time changes.
"""

import json
import os

import pytest

#: full-fidelity mode toggle
FULL = os.environ.get("REPRO_BENCH_FULL", "0") not in ("", "0", "false")

#: where machine-readable benchmark results land (the regression gate's
#: input); override with REPRO_BENCH_OUT
BENCH_OUT_DIR = os.environ.get("REPRO_BENCH_OUT", ".")


@pytest.fixture(scope="session")
def quick() -> bool:
    return not FULL


def run_once(benchmark, fn, *args, **kwargs):
    """Time ``fn`` exactly once under pytest-benchmark.

    Simulation runs are deterministic and expensive, so statistical
    repetition only wastes time; one round gives the exact same figure
    data every run.
    """
    return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)


def series_ys(fig, label, metric):
    s = fig.series[label]
    return s.ys(metric)


def tput(r):
    return r.throughput_mops


def write_bench_json(fig, filename, *, metrics=None):
    """Write one figure's numbers as a machine-readable benchmark record.

    The record carries the active machine profile's fingerprint so the
    regression gate (``python -m repro diff BASELINE CURRENT --gate
    throughput_mops``) refuses to compare numbers measured under
    different cost models, and the
    ``full`` flag so quick and full sweeps never cross-compare either.

    ``metrics`` adds extra per-point columns: a mapping of metric name
    to ``lambda result: value`` (e.g. the scale benchmark's directory
    footprint).  Names should have a direction in
    :mod:`repro.analysis.diff` if they are meant to be gateable.
    """
    from repro.experiments.parallel import resolve_jobs
    from repro.machine.config import tile_gx

    series = {}
    for label, s in fig.series.items():
        pts = []
        for x, r in s.points:
            p = {
                "x": x,
                "threads": r.num_threads,
                "ops": r.ops,
                "throughput_mops": r.throughput_mops,
                "latency_p50_cycles": r.p50_latency_cycles,
                "latency_p99_cycles": r.p99_latency_cycles,
                # host-perf provenance (engine speed, not a simulated
                # result): reported by ``repro diff`` as direction-neutral,
                # never gating, and excluded from determinism fingerprints
                "wall_seconds": r.host_wall_seconds,
                "events_processed": r.host_events_processed,
                "events_per_sec": r.host_events_per_sec,
            }
            if metrics:
                for name, fn in metrics.items():
                    p[name] = fn(r)
            pts.append(p)
        series[label] = pts
    doc = {
        "figure": fig.figure_id,
        "config_fingerprint": tile_gx().fingerprint(),
        "full": FULL,
        "jobs": resolve_jobs(None),
        "series": series,
    }
    os.makedirs(BENCH_OUT_DIR, exist_ok=True)
    path = os.path.join(BENCH_OUT_DIR, filename)
    with open(path, "w") as f:
        json.dump(doc, f, indent=1, sort_keys=True)
        f.write("\n")
    print(f"[bench record written to {path}]")
    return path


def print_figure(fig, metric=tput):
    from repro.analysis.render import ascii_chart, markdown_table

    print()
    print(ascii_chart(fig, metric))
    print(markdown_table(fig, metric))
    for n in fig.notes:
        print(f"note: {n}")
