"""Discussion experiments: Section 5.5 (x86) and Section 6 (practical
aspects), plus a NoC-contention ablation of our own simulator.

* ``run_x86_comparison`` -- the pure-shared-memory approaches on the
  ``x86_like()`` profile vs the TILE-Gx profile.  The paper: "peak
  throughput is significantly lower on x86 ... we measured the number
  of stalls per operation of the servicing thread and got
  proportionally larger numbers than on the TILE-Gx", implying an even
  larger potential gain for hardware message passing.
* ``run_oversubscription`` -- Section 6: up to four threads share a core
  via the 4-way demultiplexed hardware queues.
* ``run_backpressure`` -- Section 6: a tiny hardware buffer forces
  senders to block; the system must keep making progress (no deadlock,
  no message loss).
* ``run_noc_ablation`` -- our analytic mesh model vs the hop-by-hop
  contended-link model: synchronization traffic is far from saturating
  the mesh, so results must agree (which justifies the cheaper default).
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.analysis.series import FigureData
from repro.core import OpTable
from repro.experiments.parallel import point, run_sweep
from repro.machine import Machine, tile_gx, x86_like
from repro.objects import LockedCounter
from repro.workload.driver import WorkloadSpec
from repro.workload.metrics import RunResult
from repro.workload.scenarios import (
    CounterRun,
    build_approach,
    build_counter,
    run_counter_benchmark,
)

__all__ = [
    "run_x86_comparison",
    "run_scc_comparison",
    "run_oversubscription",
    "run_backpressure",
    "run_noc_ablation",
]


def _spec(quick: bool) -> WorkloadSpec:
    return WorkloadSpec.quick() if quick else WorkloadSpec.full()


def run_x86_comparison(quick: bool = True,
                       threads: Sequence[int] = (2, 5, 8, 10, 14),
                       jobs: Optional[int] = None) -> FigureData:
    """CC-SYNCH and SHM-SERVER on x86-like vs TILE-Gx (Section 5.5).

    The x86 profile has 16 cores at a higher clock; the interesting
    comparison is stalls per op on the servicing thread and normalized
    peak throughput.
    """
    spec = _spec(quick)
    fig = FigureData("disc-x86", "Shared-memory approaches on x86-like (Sec 5.5)",
                     "application threads", "throughput (Mops/s)")
    x86 = x86_like()
    pts = []
    for approach in ("shm-server", "CC-Synch"):
        for t in threads:
            if approach == "shm-server" and t > x86.num_cores - 1:
                continue
            if t > x86.num_cores:
                continue
            pts.append(point(f"{approach} (x86)", t, run_counter_benchmark,
                             approach, t, spec=spec, cfg=x86_like()))
            pts.append(point(f"{approach} (tile-gx)", t, run_counter_benchmark,
                             approach, t, spec=spec))
    for p, r in zip(pts, run_sweep(pts, jobs=jobs, name="disc-x86")):
        fig.add_point(p.label, p.x, r)
    fig.note("x86 profile: atomics in the cache hierarchy, no UDN, "
             "costlier coherence misses, 2.4 GHz, 16 cores")
    return fig


def _oversub_point(tpc: int, num_cores: int, spec: WorkloadSpec) -> RunResult:
    """One oversubscription point (module-level: must ship to workers)."""
    machine = Machine(tile_gx())
    prim, _ = build_approach("mp-server", machine, OpTable(), num_cores)
    counter = LockedCounter(prim)
    prim.start()
    # tpc client threads on each of cores 1..num_cores, one demux queue each
    ctxs = [machine.thread(1 + c * tpc + d, core_id=1 + c, demux=d)
            for c in range(num_cores) for d in range(tpc)]
    return CounterRun(machine, prim, counter, ctxs).closed_loop(
        spec, f"{tpc} threads/core")


def run_oversubscription(quick: bool = True, threads_per_core: int = 4,
                         num_cores: int = 8,
                         jobs: Optional[int] = None) -> FigureData:
    """Section 6: multiple client threads per core via demux queues.

    All client threads still complete operations correctly and the
    aggregate throughput stays in the same range as one-thread-per-core
    with the same total client count (the server, not the clients, is
    the bottleneck).
    """
    spec = _spec(quick)
    fig = FigureData("disc-oversub", "Oversubscription via 4-way demux (Sec 6)",
                     "threads per core", "throughput (Mops/s)")
    pts = [point("mp-server", tpc, _oversub_point, tpc, num_cores, spec)
           for tpc in range(1, threads_per_core + 1)]
    for p, r in zip(pts, run_sweep(pts, jobs=jobs, name="disc-oversub")):
        fig.add_point(p.label, p.x, r)
    return fig


def _backpressure_point(clients: int, buffer_words: int,
                        spec: WorkloadSpec) -> RunResult:
    """One backpressure point (module-level: must ship to workers)."""
    run = build_counter("mp-server", clients,
                        cfg=tile_gx(udn_buffer_words=buffer_words))
    r = run.closed_loop(spec, "mp-server")
    r.extra["backpressure_cycles"] = run.machine.udn.backpressure_cycles
    return r


def run_backpressure(quick: bool = True, buffer_words: int = 12,
                     jobs: Optional[int] = None) -> FigureData:
    """Section 6: tiny hardware buffers force sender blocking.

    With a 12-word buffer only four 3-word requests fit; the remaining
    clients block in ``send`` until the server drains.  The run must
    complete with full throughput accounting and non-zero measured
    backpressure.
    """
    spec = _spec(quick)
    fig = FigureData("disc-backpressure", "Buffer overflow backpressure (Sec 6)",
                     "clients", "throughput (Mops/s)")
    pts = [point("mp-server (12-word buffers)", clients, _backpressure_point,
                 clients, buffer_words, spec)
           for clients in (4, 10, 20, 30)]
    for p, r in zip(pts, run_sweep(pts, jobs=jobs, name="disc-backpressure")):
        fig.add_point(p.label, p.x, r)
    fig.note("blocked sends are safe: every client has at most one "
             "outstanding request, so requests cannot deadlock (Sec 6)")
    return fig


def run_scc_comparison(quick: bool = True,
                       threads: Sequence[int] = (4, 10, 20, 34),
                       jobs: Optional[int] = None) -> FigureData:
    """MP-SERVER on a message-passing-only (SCC-like) chip vs the hybrid.

    The conclusion's "best of both worlds" argument, made concrete: the
    server approach ports unchanged to a chip with no coherent shared
    memory (requests, responses and the server-private object need no
    coherence), while HYBCOMB fundamentally cannot (combiner identity
    lives in shared memory) -- attempting it raises, which the test-suite
    asserts (tests/test_scc_profile.py).
    """
    from repro.machine import scc_like

    spec = _spec(quick)
    fig = FigureData("disc-scc", "MP-SERVER on a message-passing-only chip",
                     "application threads", "throughput (Mops/s)")
    pts = []
    for t in threads:
        pts.append(point("mp-server (scc-like)", t, run_counter_benchmark,
                         "mp-server", t, spec=spec, cfg=scc_like()))
        pts.append(point("mp-server (tile-gx)", t, run_counter_benchmark,
                         "mp-server", t, spec=spec))
    for p, r in zip(pts, run_sweep(pts, jobs=jobs, name="disc-scc")):
        fig.add_point(p.label, p.x, r)
    fig.note("scc-like: 48 cores @ 1 GHz, hardware message queues, NO "
             "coherent shared memory; HYBCOMB/CC-SYNCH/SHM-SERVER cannot "
             "run there at all")
    return fig


def run_noc_ablation(quick: bool = True, num_threads: int = 20,
                     jobs: Optional[int] = None) -> FigureData:
    """Analytic vs contended mesh: the results must agree closely."""
    spec = _spec(quick)
    fig = FigureData("disc-noc", "NoC model ablation",
                     "application threads", "throughput (Mops/s)")
    pts = [point("contended links" if contended else "analytic", t,
                 run_counter_benchmark, "mp-server", t, spec=spec,
                 cfg=tile_gx(contended_noc=contended))
           for t in (5, 10, num_threads) for contended in (False, True)]
    for p, r in zip(pts, run_sweep(pts, jobs=jobs, name="disc-noc")):
        fig.add_point(p.label, p.x, r)
    return fig
