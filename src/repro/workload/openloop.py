"""Open-loop traffic, admission control, and graceful degradation.

The Section 5.2 loop is *closed*: each thread issues its next operation
only after the previous one completes, so offered load can never exceed
service capacity and the system self-clocks into its hockey-stick knee
without ever crossing it.  Production traffic is *open*: requests
arrive at a rate set by the outside world (the ROADMAP's "millions of
users"), indifferent to whether the delegation server is keeping up.
This module adds that regime on top of the unchanged machine model:

* **Arrival processes** (:class:`ArrivalSpec`) -- deterministic-rate,
  Poisson, or bursty (a 2-state MMPP: calm/burst phases with
  exponential dwell times), all driven by the seeded-RNG discipline so
  runs are bit-reproducible.
* **Admission queues** (:class:`AdmissionQueue`) -- a bounded FIFO in
  front of each delegation client.  Sources never block (open-loop
  arrivals do not wait for the system); when the bound is hit the
  policy decides: ``unbounded`` grows without limit (today's implicit
  behavior), ``drop`` sheds the arrival, ``retry`` additionally bounds
  each *dispatch* with a deadline and retries timed-out dispatches
  under capped exponential backoff, optionally behind a circuit
  breaker that trips the client to a local-spin fallback after
  consecutive timeouts and half-opens after a cooldown.
* **Degradation metrics** -- per-op queue-entry timestamps decompose
  sojourn time into admission wait + service time; the run reports
  p99.9 sojourn latency, goodput (admitted-and-completed ops/s),
  shed/timeout/retry counts, time-in-SLO, and a queue-depth-over-time
  series.  ``admit.enqueue`` / ``admit.shed`` / ``admit.retry`` events
  go to the observability bus so traces and critical-path blame can
  attribute overload stalls.

Shedding is *provably side-effect free*: a queue-full shed never
reaches the primitive at all, and a retry-shed only follows
:class:`~repro.core.api.DispatchTimeout`, whose contract is that the
abandoned dispatch executed nothing anywhere in the machine.  The
explore-matrix scenarios lean on exactly that to show shed ops never
appear in a linearization.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass, field
from typing import (
    Any, Callable, Deque, Dict, Generator, Iterator, List, Optional, Sequence,
    Tuple,
)

import numpy as np

from repro.core.api import NULL_ARG, DispatchTimeout, SyncPrimitive
from repro.machine.machine import Machine, ThreadCtx
from repro.obs.timeseries import TimeSeries
from repro.sim.resources import Condition
from repro.workload.driver import Window, validate_window
from repro.workload.metrics import RunResult

__all__ = [
    "AdmissionQueue",
    "AdmissionSpec",
    "ArrivalSpec",
    "OpenLoopSpec",
    "bounded_source",
    "bounded_worker",
    "run_openloop_workload",
]

_PROCESSES = ("deterministic", "poisson", "bursty")
_POLICIES = ("unbounded", "drop", "retry")

#: slices the measurement window is cut into for time-in-SLO accounting
_SLO_SLICES = 64


# ---------------------------------------------------------------------------
# arrival processes
# ---------------------------------------------------------------------------

@dataclass
class ArrivalSpec:
    """One source's arrival process, parameterized by the mean gap.

    The offered rate of a source is ``1 / mean_gap_cycles`` arrivals per
    cycle (``bursty`` alternates between ``mean_gap_cycles`` in the calm
    state and ``burst_gap_cycles`` inside bursts; see
    :meth:`offered_rate` for the dwell-weighted average).
    """

    process: str = "poisson"
    mean_gap_cycles: float = 200.0
    #: bursty only: gap inside bursts (defaults to ``mean_gap_cycles/4``)
    burst_gap_cycles: Optional[float] = None
    #: bursty only: mean dwell time of the burst / calm states
    burst_dwell_cycles: float = 4_000.0
    calm_dwell_cycles: float = 16_000.0

    def __post_init__(self) -> None:
        if self.process not in _PROCESSES:
            raise ValueError(f"unknown arrival process {self.process!r}; "
                             f"pick one of {_PROCESSES}")
        if self.mean_gap_cycles <= 0:
            raise ValueError(
                f"mean_gap_cycles must be > 0, got {self.mean_gap_cycles}")
        if self.burst_gap_cycles is not None and self.burst_gap_cycles <= 0:
            raise ValueError(
                f"burst_gap_cycles must be > 0, got {self.burst_gap_cycles}")
        if self.burst_dwell_cycles <= 0 or self.calm_dwell_cycles <= 0:
            raise ValueError("dwell times must be > 0")

    @property
    def offered_rate(self) -> float:
        """Long-run arrivals per cycle from one source."""
        if self.process != "bursty":
            return 1.0 / self.mean_gap_cycles
        bg = self.burst_gap_cycles or self.mean_gap_cycles / 4
        wb, wc = self.burst_dwell_cycles, self.calm_dwell_cycles
        return (wb / bg + wc / self.mean_gap_cycles) / (wb + wc)

    def gaps(self, rng: np.random.Generator) -> Iterator[int]:
        """Infinite stream of inter-arrival gaps (integer cycles >= 1).

        Deterministic gaps use error diffusion so fractional rates
        average out exactly; the stochastic processes draw from ``rng``
        only, keeping runs reproducible under the seed discipline.
        """
        if self.process == "deterministic":
            acc = 0.0
            while True:
                acc += self.mean_gap_cycles
                g = int(acc)
                acc -= g
                yield max(1, g)
        elif self.process == "poisson":
            while True:
                yield max(1, int(round(rng.exponential(self.mean_gap_cycles))))
        else:  # bursty: 2-state MMPP with exponential dwells
            bg = self.burst_gap_cycles or self.mean_gap_cycles / 4
            phases = ((self.mean_gap_cycles, self.calm_dwell_cycles),
                      (bg, self.burst_dwell_cycles))
            while True:
                for mean_gap, dwell in phases:
                    t = 0.0
                    horizon = rng.exponential(dwell)
                    while t < horizon:
                        g = max(1, int(round(rng.exponential(mean_gap))))
                        t += g
                        yield g


# ---------------------------------------------------------------------------
# admission control
# ---------------------------------------------------------------------------

@dataclass
class AdmissionSpec:
    """What happens when arrivals outpace service.

    ``unbounded`` reproduces the implicit pre-overload-layer behavior:
    the queue grows without limit and sojourn time diverges past the
    knee.  ``drop`` sheds arrivals that find the queue full.  ``retry``
    sheds on a full queue too, and additionally gives every *dispatch* a
    deadline: a dispatch the primitive cannot commit in
    ``dispatch_timeout_cycles`` is abandoned (side-effect free, see
    :class:`~repro.core.api.DispatchTimeout`) and retried after capped
    exponential backoff, up to ``max_retries`` times.  With
    ``breaker_threshold`` set, ``breaker_threshold`` *consecutive*
    timeouts trip the client to a local-spin fallback for
    ``breaker_cooldown_cycles``; the next dispatch is a half-open probe
    that closes the breaker on success or re-trips it on failure.
    """

    policy: str = "unbounded"
    #: queue bound; required for drop/retry, forbidden for unbounded
    capacity: Optional[int] = None
    #: retry only: per-dispatch deadline in cycles
    dispatch_timeout_cycles: Optional[int] = None
    max_retries: int = 3
    backoff_base_cycles: int = 256
    backoff_cap_cycles: int = 4_096
    #: consecutive timeouts that trip the circuit breaker (None = off)
    breaker_threshold: Optional[int] = None
    breaker_cooldown_cycles: int = 8_192
    #: sojourn-latency SLO target for time-in-SLO accounting (None = off)
    slo_cycles: Optional[int] = None

    def __post_init__(self) -> None:
        if self.policy not in _POLICIES:
            raise ValueError(f"unknown admission policy {self.policy!r}; "
                             f"pick one of {_POLICIES}")
        if self.policy == "unbounded":
            if self.capacity is not None:
                raise ValueError("unbounded admission takes no capacity "
                                 "(use policy='drop' or 'retry' to bound)")
        elif self.capacity is None or self.capacity < 1:
            raise ValueError(f"policy {self.policy!r} needs capacity >= 1, "
                             f"got {self.capacity}")
        if self.policy == "retry":
            if (self.dispatch_timeout_cycles is None
                    or self.dispatch_timeout_cycles < 1):
                raise ValueError("policy 'retry' needs dispatch_timeout_cycles"
                                 f" >= 1, got {self.dispatch_timeout_cycles}")
            if self.max_retries < 0:
                raise ValueError(
                    f"max_retries must be >= 0, got {self.max_retries}")
            if self.backoff_base_cycles < 1:
                raise ValueError("backoff_base_cycles must be >= 1")
            if self.backoff_cap_cycles < self.backoff_base_cycles:
                raise ValueError("backoff_cap_cycles must be >= "
                                 "backoff_base_cycles")
        elif self.dispatch_timeout_cycles is not None:
            raise ValueError("dispatch_timeout_cycles only applies to "
                             "policy='retry'")
        if self.breaker_threshold is not None:
            if self.policy != "retry":
                raise ValueError("the circuit breaker rides on dispatch "
                                 "timeouts; it needs policy='retry'")
            if self.breaker_threshold < 1:
                raise ValueError("breaker_threshold must be >= 1")
            if self.breaker_cooldown_cycles < 1:
                raise ValueError("breaker_cooldown_cycles must be >= 1")
        if self.slo_cycles is not None and self.slo_cycles < 1:
            raise ValueError(f"slo_cycles must be >= 1, got {self.slo_cycles}")


@dataclass
class OpenLoopSpec:
    """Timing + traffic + admission parameters of one open-loop run."""

    arrivals: ArrivalSpec = field(default_factory=ArrivalSpec)
    admission: AdmissionSpec = field(default_factory=AdmissionSpec)
    warmup_cycles: int = 30_000
    measure_cycles: int = 120_000
    seed: int = 42
    #: queue-depth sampling period for the depth-over-time series
    depth_sample_cycles: int = 1_000

    def __post_init__(self) -> None:
        validate_window(self)
        if self.depth_sample_cycles < 1:
            raise ValueError("depth_sample_cycles must be >= 1, got "
                             f"{self.depth_sample_cycles}")


class AdmissionQueue:
    """Bounded FIFO between one open-loop source and its client thread.

    Pure Python state plus a :class:`~repro.sim.resources.Condition` for
    worker wakeups -- the queue models client-local software (a request
    buffer in the client's own memory), so it costs no simulated shared
    traffic.  Items are ``(op_index, enqueue_cycle)``; the timestamp is
    what decomposes sojourn into admission wait + service time.
    """

    def __init__(self, machine: Machine, tid: int,
                 capacity: Optional[int] = None):
        self.sim = machine.sim
        self.tid = tid
        self.capacity = capacity
        self.items: Deque[Tuple[int, int]] = deque()
        self._cond = Condition(self.sim, label=f"admission-queue tid={tid}")
        self.closed = False
        self.enqueued = 0
        self.shed = 0
        self.depth_peak = 0

    def __len__(self) -> int:
        return len(self.items)

    def offer(self, k: int) -> bool:
        """Admit arrival ``k`` or shed it; never blocks (open loop)."""
        obs = self.sim.obs
        depth = len(self.items)
        if self.capacity is not None and depth >= self.capacity:
            self.shed += 1
            if obs is not None and "admit.shed" in obs.wanted:
                obs.emit("admit.shed", self.tid, k, depth, "queue-full")
            return False
        self.items.append((k, self.sim.now))
        self.enqueued += 1
        depth += 1
        if depth > self.depth_peak:
            self.depth_peak = depth
        if obs is not None and "admit.enqueue" in obs.wanted:
            obs.emit("admit.enqueue", self.tid, k, depth)
        self._cond.notify_all()
        return True

    def take(self) -> Generator[Any, Any, Optional[Tuple[int, int]]]:
        """Block until an item is available; None once closed and drained."""
        while True:
            if self.items:
                return self.items.popleft()
            if self.closed:
                return None
            yield from self._cond.wait()

    def close(self) -> None:
        """No further arrivals; wakes workers so they can drain and exit."""
        self.closed = True
        self._cond.notify_all()


# ---------------------------------------------------------------------------
# dispatch under the admission policy (retry / backoff / circuit breaker)
# ---------------------------------------------------------------------------

def _breaker_state() -> Dict[str, Any]:
    return {"consecutive": 0, "open_until": None, "half_open": False}


class _Dispatcher:
    """Admitted ops of one run through ``prim`` under the policy.

    Owns the run's in-flight gauge -- ops inside ``prim.apply_op`` right
    now, registered-but-unserved plus in-service -- which the depth
    series adds to the admission-queue lengths.  A fail-stop crash
    abandons the caller without unwinding, so a crashed caller's
    increment leaks: the gauge is a stat, not an invariant.
    """

    def __init__(self, prim: SyncPrimitive, opcode: int, adm: AdmissionSpec):
        self.prim = prim
        self.opcode = opcode
        self.adm = adm
        self.inflight = 0
        self.counters: Dict[str, int] = {"timeouts": 0, "retries": 0,
                                         "retry_shed": 0, "breaker_trips": 0}

    def dispatch(self, ctx: ThreadCtx, arg: int, state: Dict[str, Any]
                 ) -> Generator[Any, Any, Tuple[bool, Optional[int]]]:
        """One admitted op; returns ``(completed, retval)``.

        ``(False, None)`` means the op was dropped after exhausting its
        retries -- every attempt ended in a pre-commit
        :class:`DispatchTimeout`, so the op provably never executed.
        Without the retry policy there is no deadline, so the first
        attempt always completes.
        """
        adm, counters = self.adm, self.counters
        sim = ctx.sim
        attempt = 0
        while True:
            if state["open_until"] is not None:
                # breaker open: local-spin fallback -- burn the cooldown on
                # the client's own core instead of hammering the shared
                # path, then half-open with the next dispatch as the probe
                remaining = state["open_until"] - sim.now
                if remaining > 0:
                    yield from ctx.work(remaining)
                state["open_until"] = None
                state["half_open"] = True
            try:
                self.inflight += 1
                try:
                    retval = yield from self.prim.apply_op(
                        ctx, self.opcode, arg,
                        timeout=adm.dispatch_timeout_cycles)
                finally:
                    self.inflight -= 1
            except DispatchTimeout:
                counters["timeouts"] += 1
                state["consecutive"] += 1
                tripped = adm.breaker_threshold is not None and (
                    state["half_open"]
                    or state["consecutive"] >= adm.breaker_threshold)
                state["half_open"] = False
                obs = sim.obs
                if tripped:
                    state["open_until"] = sim.now + adm.breaker_cooldown_cycles
                    counters["breaker_trips"] += 1
                    if obs is not None and "admit.breaker" in obs.wanted:
                        obs.emit("admit.breaker", ctx.tid, "open",
                                 state["open_until"])
                if attempt >= adm.max_retries:
                    counters["retry_shed"] += 1
                    if obs is not None and "admit.shed" in obs.wanted:
                        obs.emit("admit.shed", ctx.tid, -1, 0, "timeout")
                    return False, None
                attempt += 1
                counters["retries"] += 1
                backoff = min(adm.backoff_cap_cycles,
                              adm.backoff_base_cycles << (attempt - 1))
                if obs is not None and "admit.retry" in obs.wanted:
                    obs.emit("admit.retry", ctx.tid, attempt, backoff)
                yield from ctx.work(backoff)
            else:
                state["consecutive"] = 0
                if state["half_open"]:
                    state["half_open"] = False
                    obs = sim.obs
                    if obs is not None and "admit.breaker" in obs.wanted:
                        obs.emit("admit.breaker", ctx.tid, "closed", 0)
                return True, retval


# ---------------------------------------------------------------------------
# sources and workers (bounded for the correctness tools, unbounded under
# the windowed driver)
# ---------------------------------------------------------------------------

def bounded_source(
    ctx: ThreadCtx,
    queue: AdmissionQueue,
    arrivals: ArrivalSpec,
    rng: np.random.Generator,
    n_ops: Optional[int],
) -> Generator[Any, Any, None]:
    """Offer ``n_ops`` arrivals (forever when None), then close the queue.

    The gaps are pure simulated-time delays (``yield gap``), not core
    work: the source models the outside world, so it charges nothing to
    any core's counters.
    """
    ks = itertools.count() if n_ops is None else range(n_ops)
    for k, gap in zip(ks, arrivals.gaps(rng)):
        yield gap
        queue.offer(k)
    queue.close()


def bounded_worker(
    ctx: ThreadCtx,
    queue: AdmissionQueue,
    prim: SyncPrimitive,
    opcode: int,
    adm: AdmissionSpec,
    *,
    arg_of: Optional[Callable[[ThreadCtx, int], int]] = None,
    on_result: Optional[Callable[[ThreadCtx, int, int, int, int], None]] = None,
    on_shed: Optional[Callable[[ThreadCtx, int], None]] = None,
) -> Generator[Any, Any, None]:
    """Drain ``queue`` through ``prim`` until it closes.

    ``on_result(ctx, k, retval, invoke_t, response_t)`` fires for every
    completed op (the hook the linearizability scenarios use to record
    history); ``on_shed(ctx, k)`` for every retry-shed one.
    """
    def done(k: int, ok: bool, retval: Optional[int], t_arr: int,
             t_take: int) -> None:
        if ok and on_result is not None:
            on_result(ctx, k, retval, t_take, ctx.sim.now)
        elif not ok and on_shed is not None:
            on_shed(ctx, k)

    return _worker(ctx, queue, _Dispatcher(prim, opcode, adm), arg_of, done)


def _worker(
    ctx: ThreadCtx,
    queue: AdmissionQueue,
    dispatcher: _Dispatcher,
    arg_of: Optional[Callable[[ThreadCtx, int], int]],
    done: Callable[[int, bool, Optional[int], int, int], None],
    window: Optional[Window] = None,
) -> Generator[Any, Any, None]:
    """The one worker body: take, dispatch, ``done(k, ok, retval, t_arr,
    t_take)``.  Under a ``window`` each op is an ``op.begin``/``op.end``
    span from arrival to completion."""
    state = _breaker_state()
    sim = ctx.sim
    while True:
        item = yield from queue.take()
        if item is None:
            return
        k, t_arr = item
        t_take = sim.now
        obs = sim.obs if window is not None else None
        if obs is not None:
            op_id = window.begin(obs, ctx)
        ok, retval = yield from dispatcher.dispatch(
            ctx, arg_of(ctx, k) if arg_of is not None else NULL_ARG, state)
        if obs is not None:
            window.end(obs, ctx, op_id, t_arr)
        done(k, ok, retval, t_arr, t_take)


# ---------------------------------------------------------------------------
# the windowed open-loop driver
# ---------------------------------------------------------------------------

def run_openloop_workload(
    machine: Machine,
    ctxs: Sequence[ThreadCtx],
    prim: SyncPrimitive,
    opcode: int,
    spec: OpenLoopSpec,
    *,
    name: str = "?",
    arg_of: Optional[Callable[[ThreadCtx, int], int]] = None,
) -> RunResult:
    """Drive open-loop traffic through ``prim`` and measure one window.

    One source + one admission queue + one worker per client thread in
    ``ctxs``; each source offers arrivals per ``spec.arrivals`` (so the
    machine-wide offered rate is ``len(ctxs) * arrivals.offered_rate``).
    Returns a :class:`RunResult` whose throughput/latency fields are
    computed over *sojourn* (arrival to completion), with overload
    extras under ``ol.*`` keys and the queue-depth series attached.
    """
    if not ctxs:
        raise ValueError("run_openloop_workload needs at least one client "
                         "thread (got an empty ctxs sequence)")
    window = Window(machine, len(ctxs), spec, name=name, prim=prim)
    adm = spec.admission
    sim = machine.sim
    dispatcher = _Dispatcher(prim, opcode, adm)
    queues = [AdmissionQueue(machine, ctx.tid, adm.capacity) for ctx in ctxs]
    window_t0 = spec.warmup_cycles
    slice_len = max(1, spec.measure_cycles // _SLO_SLICES)

    admit_waits: List[int] = []        # take - arrival
    # per-slice SLO accounting (completions, violations, max depth seen)
    slice_completions = [0] * _SLO_SLICES
    slice_violations = [0] * _SLO_SLICES
    slice_depth_max = [0] * _SLO_SLICES
    # the depth record is a shared-layer ring series (DESIGN.md §14), not
    # an unbounded list: per-bucket sum/count/max compose exactly under
    # downsample-on-wrap, so the fingerprinted ``ol.qdepth_*`` extras are
    # identical to the old list-based accounting at any run length
    depth_ts = TimeSeries("admit.qdepth", kind="gauge", buckets=512,
                          bucket_cycles=spec.depth_sample_cycles,
                          t0=window_t0, unit="reqs")

    def _slice_of(t: int) -> int:
        return min(_SLO_SLICES - 1, (t - window_t0) // slice_len)

    def done_of(i: int) -> Callable[[int, bool, Optional[int], int, int], None]:
        def done(k: int, ok: bool, retval: Optional[int], t_arr: int,
                 t_take: int) -> None:
            if ok and window.on:
                t_done = sim.now
                sojourn = t_done - t_arr
                window.complete(i, sojourn)    # latency = sojourn
                admit_waits.append(t_take - t_arr)
                s = _slice_of(t_done)
                slice_completions[s] += 1
                if adm.slo_cycles is not None and sojourn > adm.slo_cycles:
                    slice_violations[s] += 1
        return done

    def _depth() -> int:
        return sum(len(q) for q in queues) + dispatcher.inflight

    def depth_sampler() -> Generator:
        while True:
            yield spec.depth_sample_cycles
            if window.on:
                depth = _depth()
                depth_ts.record(sim.now, depth)
                s = _slice_of(sim.now)
                if depth > slice_depth_max[s]:
                    slice_depth_max[s] = depth

    for i, (ctx, q) in enumerate(zip(ctxs, queues)):
        rng = np.random.default_rng([spec.seed, ctx.tid])
        machine.spawn(ctx, bounded_source(ctx, q, spec.arrivals, rng, None),
                      name=f"source-{ctx.tid}")
        machine.spawn(ctx, _worker(ctx, q, dispatcher, arg_of, done_of(i),
                                   window),
                      name=f"worker-{ctx.tid}")
    sim.spawn(depth_sampler(), name="qdepth-sampler", daemon=True)

    def open_window() -> Callable[[RunResult], None]:
        shed0 = sum(q.shed for q in queues)
        enq0 = sum(q.enqueued for q in queues)
        counters = dispatcher.counters
        counters0 = dict(counters)

        def close(result: RunResult) -> None:
            x = result.extra
            clock = result.clock_mhz
            if admit_waits:
                x["ol.p999_latency"] = float(
                    np.percentile(np.asarray(window.latencies), 99.9))
                x["ol.mean_admit_wait"] = float(np.mean(admit_waits))
            queue_shed = sum(q.shed for q in queues) - shed0
            admitted = sum(q.enqueued for q in queues) - enq0
            retry_shed = counters["retry_shed"] - counters0["retry_shed"]
            # every arrival offered in the window was admitted or shed
            x["ol.offered_mops"] = ((admitted + queue_shed) * clock
                                    / spec.measure_cycles)
            x["ol.goodput_mops"] = result.ops * clock / spec.measure_cycles
            x["ol.admitted"] = float(admitted)
            x["ol.shed"] = float(queue_shed + retry_shed)
            x["ol.shed_queue"] = float(queue_shed)
            x["ol.shed_timeout"] = float(retry_shed)
            for key in ("timeouts", "retries", "breaker_trips"):
                x[f"ol.{key}"] = float(counters[key] - counters0[key])

            result.queue_depth_series = [[t, v] for t, v in depth_ts.points()]
            if depth_ts.samples:
                # exact under any number of ring wraps: max composes, the
                # mean is total-sum / total-count, and the final value is
                # tracked directly
                x["ol.qdepth_max"] = float(depth_ts.peak())
                x["ol.qdepth_mean"] = float(depth_ts.mean())
                x["ol.qdepth_final"] = float(depth_ts.last_value)

            if adm.slo_cycles is not None:
                # a slice is in-SLO when nothing completed over target in
                # it and it was not silently starved (no completions while
                # work queued)
                good = sum(
                    1 for s in range(_SLO_SLICES)
                    if not slice_violations[s]
                    and (slice_completions[s] > 0 or slice_depth_max[s] == 0))
                x["ol.time_in_slo"] = good / _SLO_SLICES
        return close

    # continuous telemetry: the admission depth beside the window's
    # completed-op count (registered only when sampling is enabled)
    ob = machine.obs
    if ob is not None and ob.sampler is not None:
        ob.sampler.register("admit.qdepth", _depth, kind="gauge",
                            unit="reqs", replace=True)
    return window.run(open_window)
