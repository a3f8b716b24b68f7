"""Fixed-memory time series and the cycle-cadence sampler.

Post-mortem observability (counters, traces) answers *what* happened
over a run; this module answers *when*.  Two pieces:

* :class:`TimeSeries` -- a ring of time buckets with **2x
  downsample-on-wrap**: when a sample lands past the last bucket, every
  adjacent bucket pair is merged and the bucket width doubles, so the
  series always spans the whole run in at most ``buckets`` buckets.
  Memory is O(buckets) regardless of run length, core count, or sample
  rate -- the property that keeps continuous telemetry viable for the
  1024-core roadmap item.  Merging preserves the aggregates exactly:
  per-bucket ``sum``/``count``/``max`` compose, so the whole-series
  mean, total, and peak are independent of how often the ring wrapped.

* :class:`Sampler` -- snapshots registered **sources** on a fixed cycle
  cadence (driven by the engine's sample hook, see
  ``Simulator.set_sample_hook``).  A *gauge* source records its value
  as-is (queue depth, buffer occupancy); a *counter* source is a
  monotonically increasing total and records the delta since the
  previous tick (busy cycles, misses, flit cycles).  Counter sources
  are baselined **at registration**, so a source registered mid-run
  starts from zero instead of a garbage pre-registration total.

Sampling is pure observation: sources are read between simulator
events, no simulated state is touched and no events are scheduled, so
enabling telemetry cannot perturb a run (the determinism tests hold
figure fingerprints bit-identical with sampling on).
"""

from __future__ import annotations

from itertools import compress
from operator import attrgetter, itemgetter
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.obs.counters import MISSES

__all__ = ["TimeSeries", "Sampler", "register_machine_sources"]

_KINDS = ("gauge", "counter")


class TimeSeries:
    """One named series of time buckets (see module docs)."""

    __slots__ = ("name", "kind", "unit", "capacity", "bucket_cycles", "t0",
                 "sums", "counts", "maxes", "last_value", "last_cycle",
                 "wraps", "samples")

    def __init__(self, name: str, *, kind: str = "gauge", buckets: int = 256,
                 bucket_cycles: int = 1024, t0: int = 0, unit: str = ""):
        if kind not in _KINDS:
            raise ValueError(f"kind must be one of {_KINDS}, got {kind!r}")
        if buckets < 2:
            raise ValueError(f"need at least 2 buckets to downsample, got {buckets}")
        if bucket_cycles < 1:
            raise ValueError(f"bucket_cycles must be >= 1, got {bucket_cycles}")
        self.name = name
        self.kind = kind
        self.unit = unit
        self.capacity = buckets
        self.bucket_cycles = bucket_cycles
        self.t0 = t0
        self.sums: List[float] = []
        self.counts: List[int] = []
        self.maxes: List[float] = []
        self.last_value: float = 0.0
        self.last_cycle: int = t0
        #: how many times the ring wrapped (bucket width = initial * 2^wraps)
        self.wraps = 0
        #: total samples recorded (not bounded by the ring)
        self.samples = 0

    def record(self, cycle: int, value: float) -> None:
        """Fold one sample taken at ``cycle`` into its time bucket."""
        idx = (cycle - self.t0) // self.bucket_cycles
        if idx < 0:
            idx = 0
        while idx >= self.capacity:
            self._downsample()
            idx = (cycle - self.t0) // self.bucket_cycles
        sums, counts, maxes = self.sums, self.counts, self.maxes
        while len(sums) <= idx:
            sums.append(0.0)
            counts.append(0)
            maxes.append(0.0)
        if counts[idx] == 0 or value > maxes[idx]:
            maxes[idx] = value
        sums[idx] += value
        counts[idx] += 1
        self.last_value = value
        self.last_cycle = cycle
        self.samples += 1

    def _downsample(self) -> None:
        """Merge adjacent bucket pairs; the bucket width doubles."""
        sums, counts, maxes = self.sums, self.counts, self.maxes
        n = len(sums)
        new_sums: List[float] = []
        new_counts: List[int] = []
        new_maxes: List[float] = []
        for i in range(0, n, 2):
            if i + 1 < n:
                new_sums.append(sums[i] + sums[i + 1])
                new_counts.append(counts[i] + counts[i + 1])
                if counts[i] == 0:
                    new_maxes.append(maxes[i + 1])
                elif counts[i + 1] == 0:
                    new_maxes.append(maxes[i])
                else:
                    new_maxes.append(max(maxes[i], maxes[i + 1]))
            else:
                new_sums.append(sums[i])
                new_counts.append(counts[i])
                new_maxes.append(maxes[i])
        self.sums, self.counts, self.maxes = new_sums, new_counts, new_maxes
        self.bucket_cycles *= 2
        self.wraps += 1

    # -- aggregate views (exact under any number of wraps) ---------------
    def total(self) -> float:
        return sum(self.sums)

    def mean(self) -> float:
        n = sum(self.counts)
        return sum(self.sums) / n if n else 0.0

    def peak(self) -> float:
        return max(compress(self.maxes, self.counts), default=0.0)

    def points(self) -> List[Tuple[int, float]]:
        """(bucket start cycle, value) pairs.

        A gauge bucket's value is its sample mean (empty buckets are
        skipped: no sample is not depth zero); a counter bucket's value
        is its summed increments (empty buckets render as 0: nothing
        happened there).
        """
        out: List[Tuple[int, float]] = []
        w = self.bucket_cycles
        if self.kind == "counter":
            for i, s in enumerate(self.sums):
                out.append((self.t0 + i * w, s))
        else:
            for i, (s, c) in enumerate(zip(self.sums, self.counts)):
                if c:
                    out.append((self.t0 + i * w, s / c))
        return out

    def to_dict(self, *, tail: Optional[int] = None) -> Dict[str, Any]:
        """JSON-ready description (``tail`` keeps only the last N points)."""
        pts = [[t, v] for t, v in self.points()]
        if tail is not None and len(pts) > tail:
            pts = pts[-tail:]
        return {
            "name": self.name,
            "kind": self.kind,
            "unit": self.unit,
            "bucket_cycles": self.bucket_cycles,
            "t0": self.t0,
            "wraps": self.wraps,
            "samples": self.samples,
            "mean": self.mean(),
            "peak": self.peak(),
            "total": self.total(),
            "last": [self.last_cycle, self.last_value],
            "points": pts,
        }


class _Source:
    __slots__ = ("name", "kind", "fn", "last")

    def __init__(self, name: str, kind: str, fn: Callable[[], float]):
        self.name = name
        self.kind = kind
        self.fn = fn
        # counter sources are baselined at registration: a source added
        # mid-run reports increments from *now*, not its lifetime total
        self.last = fn() if kind == "counter" else 0.0


class Sampler:
    """Snapshots registered sources into ring-buffer series each tick."""

    def __init__(self, sim=None, *, every: int = 512, buckets: int = 256):
        if every < 1:
            raise ValueError(f"sample interval must be >= 1 cycle, got {every}")
        self.sim = sim
        self.every = every
        self.buckets = buckets
        self.series: Dict[str, TimeSeries] = {}
        self._sources: List[_Source] = []
        self._subs: List[Callable[[int], None]] = []
        self.ticks = 0

    def _now(self) -> int:
        return self.sim.now if self.sim is not None else 0

    def register(self, name: str, fn: Callable[[], float], *,
                 kind: str = "gauge", unit: str = "",
                 replace: bool = False) -> TimeSeries:
        """Add a source; its series ring starts at the current cycle.

        Registering a ``name`` that already exists raises
        :class:`ValueError` (two sources silently feeding one ring is
        always a bug) unless ``replace=True``, which discards the old
        source *and* its recorded series -- the idiom for workload
        drivers that re-register ``goodput`` per run on a reused
        machine.
        """
        if name in self.series:
            if not replace:
                raise ValueError(f"source {name!r} already registered")
            self._sources = [s for s in self._sources if s.name != name]
            del self.series[name]
        now = self._now()
        ts = TimeSeries(name, kind=kind, buckets=self.buckets,
                        bucket_cycles=self.every,
                        t0=now - (now % self.every), unit=unit)
        self.series[name] = ts
        self._sources.append(_Source(name, kind, fn))
        return ts

    def remove_source(self, name: str) -> bool:
        """Stop sampling ``name``; returns whether a source was removed.

        The already-recorded series is **kept** (it still appears in
        summaries and dashboards -- history does not vanish because its
        feed went away); only future ticks stop reading the source.
        Removing a name that was never registered, was already removed,
        or belongs to an adopted (externally-fed) series is a
        documented no-op returning ``False`` -- teardown paths may call
        this unconditionally.
        """
        kept = [s for s in self._sources if s.name != name]
        removed = len(kept) != len(self._sources)
        self._sources = kept
        return removed

    def adopt(self, ts: TimeSeries) -> TimeSeries:
        """Track an externally-fed series (e.g. SLO burn rates) so it
        appears in summaries and dashboards alongside sampled ones."""
        if ts.name in self.series:
            raise ValueError(f"series {ts.name!r} already registered")
        self.series[ts.name] = ts
        return ts

    def subscribe(self, cb: Callable[[int], None]) -> None:
        """Call ``cb(cycle)`` after each tick's sources are sampled."""
        self._subs.append(cb)

    def on_tick(self, now: int) -> None:
        """The engine sample hook: read every source once."""
        self.ticks += 1
        series = self.series
        for src in self._sources:
            v = src.fn()
            if src.kind == "counter":
                d = v - src.last
                src.last = v
                series[src.name].record(now, d)
            else:
                series[src.name].record(now, v)
        for cb in self._subs:
            cb(now)

    def dump(self, *, tail: Optional[int] = None) -> Dict[str, Any]:
        """Full JSON-ready dump, optionally only each series' tail."""
        return {
            "every": self.every,
            "ticks": self.ticks,
            "series": {name: self.series[name].to_dict(tail=tail)
                       for name in sorted(self.series)},
        }


def register_machine_sources(sampler: Sampler, machine, counters) -> None:
    """Wire the standard per-subsystem sources of one machine.

    Per-core cycle registers and cache misses aggregate over cores each
    tick (O(cores) time, O(buckets) memory); UDN occupancy reads the
    destination buffers' reserved words; NoC flits read the contended
    mesh's running occupancy total.  Workload drivers add ``goodput``
    and ``admit.qdepth`` on top when they run.
    """
    # sum(map(getter, rows)) walks the cores without a Python frame each
    cores = machine.cores
    busy, wait = attrgetter("busy"), attrgetter("wait")
    stall_mem, stall_atomic, stall_fence = (
        attrgetter("stall_mem"), attrgetter("stall_atomic"),
        attrgetter("stall_fence"))
    sampler.register(
        "core.busy", lambda: sum(map(busy, cores)),
        kind="counter", unit="cyc")
    sampler.register(
        "core.stall",
        lambda: (sum(map(stall_mem, cores)) + sum(map(stall_atomic, cores))
                 + sum(map(stall_fence, cores))),
        kind="counter", unit="cyc")
    sampler.register(
        "core.wait", lambda: sum(map(wait, cores)),
        kind="counter", unit="cyc")
    pc_core, misses = counters.core, itemgetter(MISSES)
    sampler.register(
        "cache.misses", lambda: sum(map(misses, pc_core)),
        kind="counter", unit="misses")
    udn = machine.udn
    if udn is not None:
        sampler.register(
            "udn.occupancy", udn.buffer_occupancy_words,
            kind="gauge", unit="words")
        sampler.register(
            "udn.backpressure", lambda: udn.backpressure_cycles,
            kind="counter", unit="cyc")
    cm = machine.contended_mesh
    if cm is not None:
        sampler.register(
            "noc.flits", lambda: cm.total_flit_cycles,
            kind="counter", unit="cyc")
        sampler.register(
            "noc.link_wait", lambda: cm.total_link_wait,
            kind="counter", unit="cyc")
