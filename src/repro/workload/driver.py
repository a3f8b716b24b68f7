"""The workload driver: one measurement window, closed-loop benchmark.

Both workload modes run through :class:`Window` (Section 5.2): warm up,
measure one window, report throughput and latency.  The window owns the
per-client op counts, the latency samples, the run-unique op ids the
loops' ``op.begin``/``op.end`` carry, the run label, the goodput
sampler and the assembly of the
common :class:`~repro.workload.metrics.RunResult` fields (latency,
recovery, telemetry, host provenance).  Each mode adds one hook, opened
when the window opens and closed -- with the result -- when it closes.

``run_workload`` is the closed loop: a set of application threads
drives the Section 5.2 loop (operation + up to 50 random empty loop
iterations).  The op to execute is supplied as a factory ``make_op(ctx)
-> callable(k) -> generator`` so scenarios can give each thread its own
closure (e.g. alternating enqueue/dequeue with thread-unique values).
The open loop lives in :mod:`repro.workload.openloop`.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from typing import Any, Callable, Generator, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.api import SyncPrimitive
from repro.machine.machine import Machine, ThreadCtx
from repro.workload.metrics import RunResult

__all__ = ["WorkloadSpec", "run_ops", "run_workload"]


def validate_window(spec: Any) -> None:
    """The checks every spec with a window and a seed shares."""
    if spec.warmup_cycles < 0:
        raise ValueError(
            f"warmup_cycles must be >= 0, got {spec.warmup_cycles}")
    if spec.measure_cycles < 1:
        raise ValueError(
            "measure_cycles must be >= 1 (an empty measurement window "
            f"measures nothing), got {spec.measure_cycles}")
    if not isinstance(spec.seed, int) or isinstance(spec.seed, bool):
        raise ValueError(f"seed must be an integer, got {spec.seed!r}")
    if spec.seed < 0:
        raise ValueError(f"seed must be >= 0, got {spec.seed}")


@dataclass
class WorkloadSpec:
    """Timing parameters of one benchmark run.

    The defaults are sized so one run finishes in well under a second of
    wall time while keeping tens of thousands of operations in the
    window; ``full()`` returns the larger windows used for the committed
    EXPERIMENTS.md numbers.
    """

    warmup_cycles: int = 60_000
    measure_cycles: int = 240_000
    think_max_iterations: int = 50   #: Section 5.2: "at most 50"
    seed: int = 42

    def __post_init__(self) -> None:
        validate_window(self)
        if self.think_max_iterations < 0:
            raise ValueError(
                "think_max_iterations must be >= 0 (0 disables think time), "
                f"got {self.think_max_iterations}")

    @classmethod
    def quick(cls) -> "WorkloadSpec":
        return cls(warmup_cycles=30_000, measure_cycles=120_000)

    @classmethod
    def full(cls) -> "WorkloadSpec":
        return cls(warmup_cycles=100_000, measure_cycles=600_000)


class Window:
    """One warm-up plus one measurement window over ``n`` clients.

    Op loops publish ``op.begin``/``op.end`` around an op themselves,
    under the same ``sim.obs`` and ``wanted`` guards as every other
    publisher, numbering it with ``next(window.op_ids)`` (run-unique op
    ids let the causal tracer follow one operation across cores); they
    call :meth:`complete` for an op that finishes while :attr:`on`.
    """

    def __init__(self, machine: Machine, n: int, spec: Any, *, name: str,
                 prim: Optional[SyncPrimitive]):
        self.host_t0 = time.perf_counter()
        self.host_ev0 = machine.sim.events_processed
        self.machine, self.n, self.spec = machine, n, spec
        self.name, self.prim = name, prim
        self.on = False
        self.ops_done = [0] * n
        self.latencies: List[int] = []
        self.op_ids = itertools.count()

    def complete(self, i: int, latency: int) -> None:
        self.ops_done[i] += 1
        self.latencies.append(latency)

    def run(self, open_hook: Callable[[], Callable[[RunResult], None]]
            ) -> RunResult:
        """Warm up, measure, and assemble the result.

        ``open_hook()`` runs as the window opens and returns the mode's
        closing hook, which fills the mode's own fields of the result.
        """
        machine, spec, obs = self.machine, self.spec, self.machine.obs
        # the run label is set up front so incident bundles dumped mid-run
        # already carry it; the goodput series exists only when an
        # observability session enabled sampling
        sampler = obs.sampler if obs is not None else None
        if obs is not None:
            obs.label = f"{self.name} T={self.n}"
        if sampler is not None:
            sampler.register("goodput", lambda: sum(self.ops_done),
                             kind="counter", unit="ops", replace=True)

        machine.run(until=spec.warmup_cycles)
        self.on = True
        close_hook = open_hook()
        machine.run(until=spec.warmup_cycles + spec.measure_cycles)
        self.on = False

        result = RunResult(name=self.name, num_threads=self.n,
                           window_cycles=spec.measure_cycles,
                           ops=sum(self.ops_done),
                           clock_mhz=machine.cfg.clock_mhz,
                           per_thread_ops=list(self.ops_done))
        result.latency_samples = self.latencies
        if self.latencies:
            arr = np.asarray(self.latencies)
            result.mean_latency_cycles = float(arr.mean())
            result.p50_latency_cycles = float(np.percentile(arr, 50))
            result.p95_latency_cycles = float(np.percentile(arr, 95))
            result.p99_latency_cycles = float(np.percentile(arr, 99))
        close_hook(result)

        # recovery metrics (fault-injection runs): primitives expose
        # ``recovery_stats`` when a fault-tolerance mode is enabled
        stats = getattr(self.prim, "recovery_stats", None)
        if stats:
            ttr = stats.get("time_to_recovery")
            result.time_to_recovery_cycles = (
                float(ttr) if ttr is not None else None)
            result.ops_retried = int(stats.get("ops_retried", 0))
            result.duplicates_suppressed = int(
                stats.get("duplicates_suppressed", 0))
            result.failovers = int(stats.get("failovers", 0))
            result.takeovers = int(stats.get("takeovers", 0))

        # host-perf provenance: excluded from figure fingerprints as
        # fields and never fed back into simulated results
        result.host_wall_seconds = time.perf_counter() - self.host_t0
        result.host_events_processed = (
            machine.sim.events_processed - self.host_ev0)
        return result


def run_ops(
    machine: Machine,
    scripts: "Sequence[Tuple[ThreadCtx, Generator]]",
    *,
    prims: Sequence[Any] = (),
) -> List[Any]:
    """Run bounded per-thread scripts to completion and join them all.

    The windowed loop above measures throughput over a time horizon; the
    correctness tools (history recording, schedule exploration) instead
    need every thread to perform a *fixed number* of operations and
    finish.  ``scripts`` is a sequence of ``(ctx, generator)`` pairs,
    spawned in order; a coordinator process joins them, then calls
    ``stop()`` on any primitive in ``prims`` that has one (polling
    server loops), and the machine runs until fully drained.

    Returns the finished client :class:`~repro.sim.engine.Process`
    objects; raises ``RuntimeError`` naming the first client that did
    not finish (e.g. wedged by an injected fault).
    """
    procs = [machine.spawn(ctx, gen) for ctx, gen in scripts]

    def coordinator() -> Generator:
        for p in procs:
            yield from p.join()
        for prim in prims:
            if hasattr(prim, "stop"):
                prim.stop()

    machine.sim.spawn(coordinator(), name="coordinator")
    machine.run()
    for p in procs:
        if p.alive:
            raise RuntimeError(f"client process {p.name!r} did not finish")
    return procs


def think_table(rng: np.random.Generator, max_iterations: int) -> np.ndarray:
    """One thread's cycle of 4,096 think times, each in [0, max_iterations].

    The draw is int64 so the values (and the seeded stream every later
    draw continues from) do not depend on the bound's size; the table is
    then kept in the smallest unsigned type that holds ``max_iterations``
    -- one byte an entry at the paper's 50.
    """
    thinks = rng.integers(0, max_iterations + 1, size=4096)
    return thinks.astype(np.min_scalar_type(max_iterations))


def run_workload(
    machine: Machine,
    ctxs: Sequence[ThreadCtx],
    make_op: Callable[[ThreadCtx], Callable[[int], Generator[Any, Any, Any]]],
    spec: WorkloadSpec,
    *,
    name: str = "?",
    prim: Optional[SyncPrimitive] = None,
    service_core_ids: "Optional[Sequence[int] | str]" = None,
) -> RunResult:
    """Run the paper's benchmark loop and measure one window.

    ``prim`` (optional) contributes combining-session statistics and the
    default servicing-core set.  ``service_core_ids`` overrides which
    cores count as "the servicing thread" for the Figure 4a breakdown;
    the string ``"current"`` selects the combiner active at the end of
    warm-up (the fixed-combiner methodology of the paper's footnote 4).
    """
    if not ctxs:
        raise ValueError("run_workload needs at least one application thread "
                         "(got an empty ctxs sequence)")
    window = Window(machine, len(ctxs), spec, name=name, prim=prim)
    rng = np.random.default_rng(spec.seed)
    think_unit = machine.cfg.work_cycles_per_iteration
    sim = machine.sim

    def app_thread(i: int, ctx: ThreadCtx, thinks: np.ndarray) -> Generator:
        op = make_op(ctx)
        k = 0
        nthinks = len(thinks)
        cid, tid, op_ids = ctx.core.cid, ctx.tid, window.op_ids
        while True:
            obs = sim.obs
            t0 = sim.now
            if obs is not None:
                op_id = next(op_ids)
                if "op.begin" in obs.wanted:
                    obs.emit("op.begin", cid, tid, op_id, name)
            yield from op(k)
            if obs is not None and "op.end" in obs.wanted:
                obs.emit("op.end", cid, tid, op_id, t0, window.on)
            if window.on:
                window.complete(i, sim.now - t0)
            k += 1
            t = int(thinks[k % nthinks]) * think_unit
            if t:
                yield from ctx.work(t)

    for i, ctx in enumerate(ctxs):
        thinks = think_table(rng, spec.think_max_iterations)
        machine.spawn(ctx, app_thread(i, ctx, thinks), name=f"app-{ctx.tid}")

    return window.run(
        lambda: _closed_loop_stats(machine, ctxs, prim, service_core_ids))


def _closed_loop_stats(
    machine: Machine,
    ctxs: Sequence[ThreadCtx],
    prim: Optional[SyncPrimitive],
    service_core_ids: "Optional[Sequence[int] | str]",
) -> Callable[[RunResult], None]:
    """The closed loop's window hook: snapshot at open, fill at close.

    Fills the servicing-thread breakdown, the atomic rates, the
    combining rate and the ``obs.*`` extras.
    """
    if service_core_ids == "current":
        # fixed-combiner measurement (Figure 4a): the thread combining at
        # the end of warm-up holds the role for the whole window when
        # MAX_OPS is effectively infinite
        service_ids = (
            [prim.current_combiner_core]
            if prim is not None and prim.current_combiner_core is not None
            else []
        )
    elif service_core_ids is not None:
        service_ids = list(service_core_ids)
    elif prim is not None and prim.service_threads > 0:
        # dedicated servers: their cores run nothing but service work
        service_ids = list(prim.servicing_cores())
    else:
        # combiner cores interleave app work with combining, so a default
        # per-op breakdown would be meaningless -- use "current" with a
        # fixed-combiner (MAX_OPS = inf) run instead (Figure 4a).
        service_ids = []
    snapshots = {cid: machine.cores[cid].snapshot() for cid in service_ids}
    app_snapshots = [ctx.core.snapshot() for ctx in ctxs]
    sessions_before = len(prim.combining_sessions) if prim is not None else 0
    obs = machine.obs
    obs_before = obs.counters.snapshot() if obs is not None else None

    def close(result: RunResult) -> None:
        total_ops = result.ops
        # servicing-thread breakdown (Figure 4a):  For server approaches
        # the service core set is fixed; for combiners it is every core
        # that combined -- but only combining work runs there beyond the
        # app loop, so the meaningful per-op number needs the
        # fixed-combiner variant (MAX_OPS = inf), exactly as the paper's
        # footnote 4 does.
        if service_ids and total_ops:
            busy = stall = 0
            for cid in service_ids:
                delta = machine.cores[cid].delta(snapshots[cid])
                busy += delta["busy"]
                stall += (delta["stall_mem"] + delta["stall_atomic"]
                          + delta["stall_fence"])
            result.service_cycles_per_op = (busy + stall) / total_ops
            result.service_stall_per_op = stall / total_ops

        # atomic-instruction rates across application threads
        if total_ops:
            cas = cas_fail = atomics = 0
            for ctx, snap in zip(ctxs, app_snapshots):
                delta = ctx.core.delta(snap)
                cas += delta["cas_ops"]
                cas_fail += delta["cas_failures"]
                atomics += delta["atomic_ops"]
            result.cas_per_op = cas / total_ops
            result.cas_failures_per_op = cas_fail / total_ops
            result.atomics_per_op = atomics / total_ops

        # combining rate (Figure 4b): mean ops per session closed in-window
        if prim is not None:
            window_sessions = [
                ops for (t, ops) in prim.combining_sessions[sessions_before:]
            ]
            if window_sessions:
                result.combining_rate = float(np.mean(window_sessions))

        # observability: window totals from the perf counter file
        # (``obs.*`` extras); its stall registers are the cores' own, so
        # the service breakdown is the one computed above
        if obs is not None:
            delta = obs.counters.delta(obs_before)
            if service_ids and total_ops:
                result.extra["obs.service_cycles_per_op"] = result.service_cycles_per_op
                result.extra["obs.service_stall_per_op"] = result.service_stall_per_op
            cores = delta["core"].values()
            result.extra["obs.misses"] = float(
                sum(c.get("misses", 0) for c in cores))
            result.extra["obs.invalidations"] = float(
                sum(c.get("invalidations_received", 0) for c in cores))
            result.extra["obs.udn_words_sent"] = float(
                sum(c.get("udn_words_sent", 0) for c in cores))
            result.extra["obs.flit_cycles"] = float(
                sum(lk.get("flit_cycles", 0) for lk in delta["link"].values()))
            if delta["line"]:
                hot_line, hot = max(delta["line"].items(),
                                    key=lambda kv: kv[1].get("stall_cycles", 0))
                result.extra["obs.hottest_line"] = float(hot_line)
                result.extra["obs.hottest_line_stall_cycles"] = float(
                    hot.get("stall_cycles", 0))

    return close
