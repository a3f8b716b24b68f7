"""What the end-to-end benchmark runs and what it reports.

Pure data: importing this module imports nothing from ``repro``, so the
orchestrator can parse arguments and name workloads before any
simulator code loads.  ``BENCHMARK.json`` at the repository root mirrors
these tables; ``test_e2e.py`` keeps the two in step.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Dict, Optional, Tuple

__all__ = ["E2E_METRICS", "LAYERS", "LAYER_COUNTS", "RESULT_TAG", "WORKLOADS",
           "Workload", "per_layer_metrics"]

#: starts the line on which a repetition child prints its JSON result
RESULT_TAG = "E2E-RESULT "


@dataclass(frozen=True)
class Workload:
    """One contended-counter configuration (the paper's §5.3 benchmark)."""

    name: str
    why: str
    approach: str                 #: paper label passed to build_approach
    clients: int                  #: application threads
    warmup_cycles: int
    measure_cycles: int
    #: None = the calibrated 36-core tile_gx(); else a mesh_profile shape,
    #: built with the contended (hop-by-hop) NoC
    mesh: Optional[Tuple[int, int]] = None
    #: thread t runs on core t * core_stride (1 = the paper's placement)
    core_stride: int = 1
    #: open loop only: machine-wide Poisson offered load (Mops/s)
    offered_mops: Optional[float] = None
    #: run under the full ``repro report`` observability stack
    observed: bool = False

    @property
    def machine_cores(self) -> int:
        """Cores of the simulated machine (tile_gx has a 6x6 mesh)."""
        w, h = self.mesh or (6, 6)
        return w * h

    def job(self, seed: int) -> Dict:
        """The JSON-able description a repetition child runs."""
        d = asdict(self)
        d["seed"] = seed
        return d


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload(
        "counter-mp",
        "Fig 3a plateau: mp-server with 35 clients; host time sits in sim "
        "and udn, so an engine or UDN change shows here",
        "mp-server", 35, 100_000, 500_000),
    Workload(
        "counter-cc",
        "coherence-stall-bound contrast: CC-Synch with 36 threads; mem "
        "holds the host time and udn none, so a mem gain must show here",
        "CC-Synch", 36, 100_000, 1_000_000),
    # 150 Mops/s offered = 1.5x mp-server's 100 Mops/s capacity
    Workload(
        "overload-mp",
        "open loop at 1.5x mp-server capacity with retry admission: the "
        "driver, timed dispatch and shedding paths the closed loop skips",
        "mp-server", 8, 20_000, 600_000, offered_mops=150.0),
    Workload(
        "counter-mp-obs",
        "counter-mp under the full report stack (timeseries, SLO, flight, "
        "spatial hops): the cost of observability, which must not change "
        "the run",
        "mp-server", 35, 100_000, 500_000, observed=True),
    # 256 threads, one on every fourth core: with all 1024 cores as
    # clients HybComb is bistable (seed-to-seed throughput 7-71 Mops/s
    # in a 500k-cycle run), which no bound on the spread could hold
    Workload(
        "scale-1024",
        "HybComb spread over a contended 32x32 mesh: hop-by-hop NoC "
        "traffic, mesh-wide sharer sets and the 1024-core set-up cost",
        "HybComb", 256, 50_000, 200_000, mesh=(32, 32), core_stride=4),
)}

#: end-to-end metrics: name -> (unit, better, bound).  ``bound`` is the
#: share of the parent's median by which a metric may worsen before a
#: change counts as a regression.  The host times are corrected for host
#: speed (hostspeed.py); over ten runs their quartile spread stays within
#: 7%, but set-up medians still moved 9% between two sets (README.md,
#: "Measured spread"), so they keep the widest bound BENCHMARK.json
#: allows.  The simulated outputs are exact for one seed and their bounds
#: cover the spread across seeds (p99 of scale-1024 moves 10-13% from
#: seed to seed at any window length tried).
E2E_METRICS: Dict[str, Tuple[str, str, float]] = {
    "setup_s": ("s", "lower", 0.25),
    "run_s": ("s", "lower", 0.25),
    "peak_rss_mb": ("MB", "lower", 0.05),
    "sim_throughput_mops": ("Mops/s", "higher", 0.10),
    "sim_latency_p50_cycles": ("cycles", "lower", 0.05),
    "sim_latency_p99_cycles": ("cycles", "lower", 0.25),
    "ok_frac": ("ratio", "higher", 0.05),
}

#: source layers, named after the ``src/repro`` packages; ``py`` is the
#: standard library, numpy and builtins
LAYERS = ("sim", "machine", "mem", "udn", "noc", "core", "objects",
          "workload", "obs", "py")

#: per-layer counts read from public registers after the run: name ->
#: unit.  Whole-run totals divided by committed ops, so deterministic for
#: one seed -- except sim.ns_per_event, the host cost of one event.
LAYER_COUNTS: Dict[str, str] = {
    "sim.events_per_op": "events/op",
    "sim.ns_per_event": "ns",
    "machine.busy_cycles_per_op": "cycles/op",
    "machine.wait_cycles_per_op": "cycles/op",
    "mem.loads_per_op": "1/op",
    "mem.stores_per_op": "1/op",
    "mem.rmr_per_op": "1/op",
    "mem.atomics_per_op": "1/op",
    "mem.cas_fail_ratio": "ratio",
    "mem.stall_cycles_per_op": "cycles/op",
    "mem.atomic_stall_cycles_per_op": "cycles/op",
    "mem.fence_stall_cycles_per_op": "cycles/op",
    "mem.dir_peak_entries": "count",
    "mem.dir_nominal_bytes": "bytes",
    "udn.msgs_per_op": "1/op",
    "udn.backpressure_cycles_per_op": "cycles/op",
    "noc.packets_per_op": "1/op",
    "noc.link_wait_per_packet": "cycles",
    "noc.flit_cycles_per_op": "cycles/op",
    "core.service_cycles_per_op": "cycles/op",
    "core.service_stall_per_op": "cycles/op",
    "core.combining_rate": "ops",
    "workload.admit_wait_cycles": "cycles",
    "workload.qdepth_mean": "reqs",
    "workload.dispatch_timeouts": "count",
    "obs.bus_events_per_op": "1/op",
}


#: the per-layer metrics where more is better; for every other one a
#: smaller value means less work, waiting or host time
HIGHER_IS_BETTER = frozenset({"core.combining_rate"})


def per_layer_metrics() -> Dict[str, Tuple[str, str]]:
    """Every metric a ``--trace`` run reports: name -> (unit, better)."""
    units = dict(LAYER_COUNTS)
    for layer in LAYERS:
        units[f"layer.{layer}.share"] = "ratio"
        units[f"layer.{layer}.us_per_op"] = "us"
        units[f"layer.{layer}.calls_per_op"] = "1/op"
    units["trace.overhead"] = "ratio"
    return {name: (unit, "higher" if name in HIGHER_IS_BETTER else "lower")
            for name, unit in units.items()}
