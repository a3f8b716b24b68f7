"""Obs-overhead benchmark: continuous telemetry must stay near-free.

Runs the same closed-loop counter workload four ways --

* ``off``       -- no observability at all (the figure-reproduction
  default);
* ``obs``       -- event bus + perf counters (``--obs counters``), no
  continuous telemetry; no consumer wants any kind, so the bus builds
  no event and the cost is the inline counter writes;
* ``sampling``  -- the time-series sampler + spatial atlas on top
  (``timeseries=True, spatial=True``: the engine clock hook,
  ring-buffer series and the per-link/per-tile congestion counters);
* ``full``      -- the whole continuous stack ``python -m repro run
  --obs report`` enables: sampling + SLO monitoring + flight recorder +
  spatial atlas with hop-by-hop latency attribution

-- interleaved over :data:`REPS` repetitions, and asserts the
tentpole's overhead budget on host engine speed: the **marginal cost
of sampling** (``sampling`` vs ``obs``) stays within
:data:`OVERHEAD_BUDGET`.  The bus + counters themselves are the
pre-existing pay-when-enabled observability cost; the sampling layer
must not meaningfully add to it, or it could never be left on.

The gate takes the **minimum marginal across paired repetitions**: the
two modes of one repetition run back to back, so the cleanest pair is
the one least polluted by host noise (CI runners routinely jitter
10-30%, far above the real cost).  A genuine regression inflates every
pair and still trips the gate; a noisy neighbour inflates some pairs
and does not.  The ``full``-stack marginal is printed for
trend-watching but not gated -- its SLO/flight layers are event-driven
and priced separately (one C-level ring append + a dict probe per bus
event, see ``EventBus.keep_recent`` / ``subscribe_kinds``).  Its hop
attribution adds no bus handler: the UDN fabric updates the atlas's
per-pair totals inline (one dict update per send and per delivery), and
the per-hop split is derived from them only when read.  The flight ring
wants the narrated kinds (ops and service spans: four events per
mp-server op); the atlas subscribes to nothing, reading the counter
file's registers and the fabric's totals, so no hardware kind (UDN
send/deliver/receive, backpressure, link hops) is built.  On a 2-vCPU
host, over five runs, the printed ``obs``/``off`` engine speed reads
0.76-0.97 and the ``full`` marginal over ``obs`` 28-37%, so ``full``
runs at 0.51-0.65 of ``off``.

Simulated results must be bit-identical across all four modes (the
sampler is a pure observer driven by the engine clock hook) -- asserted
here on every repetition, not just spot-checked.  ``BENCH_obs.json``
carries the four modes' (identical, deterministic) simulated throughput
for the standard regression gate, plus host-perf provenance.
"""

import repro.obs as obs_mod
from benchmarks.conftest import print_figure, run_once, write_bench_json
from repro.analysis.series import FigureData
from repro.obs import SLO
from repro.workload import WorkloadSpec
from repro.workload.scenarios import run_counter_benchmark

#: application threads (the contended mid-curve regime)
THREADS = 10

#: interleaved repetitions; the gate keys on the cleanest pair
REPS = 3

#: allowed marginal engine-speed cost of time-series sampling vs plain
#: bus+counters observability
OVERHEAD_BUDGET = 0.05

_SLOS = (SLO("op-p99", kind="latency", target=100_000.0),)

_OPTIONS = {
    "off": None,
    "obs": {},
    "sampling": dict(timeseries=True, sample_every=512, spatial=True),
    "full": dict(timeseries=True, sample_every=512, slos=_SLOS, flight=True,
                 spatial=True, spatial_hops=True),
}

MODES = tuple(_OPTIONS)


def _run(spec, mode):
    """One run's result and its machine's record (None when off)."""
    options = _OPTIONS[mode]
    if options is None:
        return run_counter_benchmark("mp-server", THREADS, spec=spec), None
    with obs_mod.observed(**options) as session:
        result = run_counter_benchmark("mp-server", THREADS, spec=spec)
    (rec,) = session.records()
    return result, rec


def test_obs_overhead(benchmark, quick):
    spec = WorkloadSpec.quick() if quick else WorkloadSpec.full()

    def sweep():
        runs = {m: [] for m in MODES}
        # interleave the modes so slow host drift (thermal, noisy
        # neighbours) hits every mode roughly equally
        for _rep in range(REPS):
            for m in MODES:
                runs[m].append(_run(spec, m))
        return runs

    pairs = run_once(benchmark, sweep)
    runs = {m: [r for r, _rec in pairs[m]] for m in MODES}
    recs = {m: [rec for _r, rec in pairs[m]] for m in MODES}

    # determinism: observation (any amount of it) must not change one
    # simulated number
    ref = runs["off"][0]
    for m in MODES:
        for r in runs[m]:
            assert r.ops == ref.ops, (m, r.ops, ref.ops)
            assert r.per_thread_ops == ref.per_thread_ops, m
            assert r.mean_latency_cycles == ref.mean_latency_cycles, m
    # the sampled runs actually sampled, and the spatial atlas rode along
    for m in ("sampling", "full"):
        for rec in recs[m]:
            assert rec.timeseries["ticks"] > 0
            assert "core.busy" in rec.timeseries["series"]
            assert rec.spatial["messages"] > 0 and rec.spatial["links"]
    for rec in recs["obs"]:
        assert rec.timeseries is None and rec.spatial is None

    ev = {m: [r.host_events_per_sec for r in runs[m]] for m in MODES}
    assert all(v > 0 for vs in ev.values() for v in vs)
    paired = [1.0 - s / o for s, o in zip(ev["sampling"], ev["obs"])]
    marginal = min(paired)
    best = {m: max(vs) for m, vs in ev.items()}
    full_marginal = 1.0 - best["full"] / best["obs"]
    # the absolute price of turning observability on at all: the bus
    # plus the counter file, relative to no observability (informational)
    obs_off = best["obs"] / best["off"]
    print(f"\nengine speed (best of {REPS}): "
          + "  ".join(f"{m}={best[m] / 1e6:.2f}M ev/s" for m in MODES))
    print(f"sampling overhead per pair: "
          + "  ".join(f"{p:+.1%}" for p in paired)
          + f"  -> gated min {marginal:+.1%}"
          f"  (full stack {full_marginal:+.1%}, not gated)"
          f"  obs/off engine speed {obs_off:.2f} (not gated)")
    assert marginal <= OVERHEAD_BUDGET, (
        f"time-series sampling costs {marginal:.1%} engine speed over "
        f"plain bus+counters in every one of {REPS} paired runs "
        f"(budget {OVERHEAD_BUDGET:.0%})")

    fig = FigureData(
        "obs-overhead",
        "observability overhead: identical simulated results, host cost only",
        "threads", "throughput (Mops/s)",
    )
    for m in MODES:
        fig.add_point(m, THREADS,
                      max(runs[m], key=lambda r: r.host_events_per_sec))
    fig.note(f"sampling overhead {marginal:+.1%} vs obs "
             f"(cleanest of {REPS} pairs, budget {OVERHEAD_BUDGET:.0%}); "
             f"full telemetry stack {full_marginal:+.1%}; "
             f"obs/off engine speed {obs_off:.2f}")
    print_figure(fig)
    write_bench_json(fig, "BENCH_obs.json")
