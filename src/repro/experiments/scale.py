"""The big-machine scaling experiment: throughput vs cores to 1024.

Nothing in the paper's delegation-vs-locking story caps at the
TILE-Gx's 36 cores; this flagship figure re-runs the Figure 3 contended
counter on TILE-Gx-calibrated meshes of 36 (6x6), 64 (8x8), 256
(16x16) and 1024 (32x32) cores -- the question the exascale
in-network-synchronization literature asks of every 36-core result.
Contenders:

* ``mp-server``   -- delegation over hardware message passing (one
  server core, cores-1 clients);
* ``HybComb``     -- the paper's hybrid combining;
* ``CC-Synch``    -- shared-memory combining;
* ``mcs-lock``    -- the classic scalable lock (O(1) RMR local
  spinning), standing in for "just lock it" at scale.

Every point also records the sparse directory's bookkeeping footprint
(``dir.*`` extras, model-level bytes -- deterministic across hosts and
Python versions), which is what the BENCH_scale regression gate holds
sub-linear: directory state must track the *hot* working set, not the
core count.

The per-mesh cost model is :func:`~repro.machine.config.mesh_profile`:
identical calibration constants at every size, with memory controllers
re-placed along the mesh edge; at 6x6 it *is* ``tile_gx``, so the
36-core points line up with every fig3-family figure.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

from repro.analysis.series import FigureData
from repro.core.locks import MCSLock
from repro.experiments.parallel import point, run_sweep
from repro.machine.config import mesh_profile
from repro.machine.machine import Machine, ThreadCtx
from repro.workload.driver import WorkloadSpec, run_workload
from repro.workload.metrics import RunResult
from repro.workload.scenarios import build_counter

__all__ = ["MESHES", "SCALE_APPROACHES", "run_scale", "run_scale_point",
           "run_scale_smoke"]

#: core count -> mesh shape of each scaling point
MESHES: Dict[int, Tuple[int, int]] = {
    36: (6, 6),
    64: (8, 8),
    256: (16, 16),
    1024: (32, 32),
}

SCALE_APPROACHES = ("mp-server", "HybComb", "CC-Synch", "mcs-lock")

QUICK_CORES = (36, 64, 256, 1024)
FULL_CORES = (36, 64, 256, 1024)


def _spec(quick: bool) -> WorkloadSpec:
    # shorter windows than fig3: a 1024-core point simulates every core
    # every cycle, so the same wall-time budget buys fewer cycles.  The
    # contended counter reaches steady state within a few thousand
    # cycles at every size (the serialization point is one line).
    if quick:
        return WorkloadSpec(warmup_cycles=5_000, measure_cycles=20_000)
    return WorkloadSpec(warmup_cycles=20_000, measure_cycles=80_000)


def _attach_dir_stats(machine: Machine, result: RunResult) -> RunResult:
    st = machine.mem.directory_stats()
    result.extra["dir.entries"] = float(st["entries"])
    result.extra["dir.peak_entries"] = float(st["peak_entries"])
    result.extra["dir.nominal_bytes"] = float(st["nominal_bytes"])
    result.extra["dir.max_line_bytes"] = float(st["max_line_bytes"])
    return result


def run_scale_point(approach: str, num_cores: int, *,
                    spec: Optional[WorkloadSpec] = None,
                    quick: bool = True) -> RunResult:
    """One (approach, core-count) point of the scaling curve.

    The directory footprint is read back from the run's machine and
    attached as deterministic ``dir.*`` extras.
    """
    try:
        width, height = MESHES[num_cores]
    except KeyError:
        raise ValueError(
            f"no mesh shape for {num_cores} cores; "
            f"pick one of {sorted(MESHES)}") from None
    spec = spec or _spec(quick)
    cfg = mesh_profile(width, height)

    if approach == "mcs-lock":
        machine = Machine(cfg)
        lock = MCSLock(machine)
        addr = machine.mem.alloc(1, isolated=True)
        ctxs = [machine.thread(t) for t in range(num_cores)]

        def make_op(ctx: ThreadCtx):
            def op(k: int):
                yield from lock.acquire(ctx)
                v = yield from ctx.load(addr)
                yield from ctx.store(addr, v + 1)
                yield from lock.release(ctx)
            return op

        result = run_workload(machine, ctxs, make_op, spec, name="mcs-lock")
        return _attach_dir_stats(machine, result)

    clients = num_cores - 1 if approach in ("mp-server", "shm-server") \
        else num_cores
    run = build_counter(approach, clients, cfg=cfg)
    return _attach_dir_stats(run.machine, run.closed_loop(spec, approach))


def run_scale(quick: bool = True,
              core_counts: Optional[Sequence[int]] = None,
              approaches: Sequence[str] = SCALE_APPROACHES,
              jobs: Optional[int] = None,
              ) -> FigureData:
    """The scaling-curve figure: counter throughput vs core count."""
    cores = tuple(core_counts if core_counts is not None else
                  (QUICK_CORES if quick else FULL_CORES))
    spec = _spec(quick)
    fig = FigureData("scale", "Counter throughput vs machine size",
                     "cores", "throughput (Mops/s)")
    pts = [point(approach, n, run_scale_point, approach, n, spec=spec)
           for approach in approaches for n in cores]
    for p, r in zip(pts, run_sweep(pts, jobs=jobs, name="scale")):
        fig.add_point(p.label, p.x, r)
    fig.note("mesh shapes: " + ", ".join(
        f"{n}={w}x{h}" for n, (w, h) in sorted(MESHES.items())
        if n in cores))
    return fig


def run_scale_smoke(quick: bool = True, jobs: Optional[int] = None
                    ) -> FigureData:
    """CI smoke variant: the 256-core (16x16) point only.

    A single mesh size keeps the run short and makes the session's
    spatial atlas (and its exported SVG) a clean 16x16 picture instead
    of a merge across mesh shapes.
    """
    return run_scale(quick=True, core_counts=(256,), jobs=jobs)
