"""Declarative SLO monitors with multi-window burn-rate alerting.

An :class:`SLO` states an objective over the run's live telemetry:

* ``latency``  -- the ``quantile`` of op sojourn latencies completed in
  a sample window must stay <= ``target`` cycles (fed from ``op.end``
  bus events, so it needs no driver cooperation);
* ``goodput``  -- completed ops per second over the window must stay
  >= ``target`` Mops/s;
* ``qdepth``   -- the sampled queue-depth gauge (``metric``, default
  ``admit.qdepth``) must stay <= ``target``.

:class:`SLOMonitor` evaluates every SLO once per sampler tick and runs
the SRE-style **multi-window burn-rate** rule: each window is good (0)
or bad (1); the bad fraction over the last ``short_ticks`` windows and
over the last ``long_ticks`` windows is divided by the error ``budget``
to get short/long burn rates.  An alert fires -- published as an
``slo.breach`` bus event -- when the short burn reaches
``burn_threshold`` *and* the long burn reaches 1.0: the fast window
makes alerts prompt, the slow window keeps one bad blip from paging.
When the short burn falls back below 1.0 an ``slo.recover`` event is
published.  The short burn rate of every SLO is recorded as a
``slo.<name>.burn`` time series for the dashboard's burn chart.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.obs.timeseries import TimeSeries

__all__ = ["SLO", "SLOMonitor"]

_KINDS = ("latency", "goodput", "qdepth")


@dataclass(frozen=True)
class SLO:
    """One service-level objective (see module docs)."""

    name: str
    kind: str                    #: "latency" | "goodput" | "qdepth"
    target: float                #: cycles / Mops/s floor / depth ceiling
    quantile: float = 0.99       #: latency only
    budget: float = 0.1          #: tolerated bad-window fraction
    burn_threshold: float = 2.0  #: short-window burn rate that alerts
    short_ticks: int = 6
    long_ticks: int = 30
    metric: str = "admit.qdepth"  #: sampled gauge (qdepth kind only)

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"kind must be one of {_KINDS}, got {self.kind!r}")
        if not 0.0 < self.quantile <= 1.0:
            raise ValueError(f"quantile must be in (0, 1], got {self.quantile}")
        if not 0.0 < self.budget <= 1.0:
            raise ValueError(f"budget must be in (0, 1], got {self.budget}")
        if self.burn_threshold < 1.0:
            raise ValueError(
                f"burn_threshold must be >= 1.0, got {self.burn_threshold}")
        if self.short_ticks < 1 or self.long_ticks < self.short_ticks:
            raise ValueError(
                f"need 1 <= short_ticks <= long_ticks, got "
                f"{self.short_ticks}/{self.long_ticks}")


class _State:
    __slots__ = ("short", "long", "breached", "breaches", "last_value",
                 "burn_short", "burn_long")

    def __init__(self, slo: SLO):
        self.short: deque = deque(maxlen=slo.short_ticks)
        self.long: deque = deque(maxlen=slo.long_ticks)
        self.breached = False
        self.breaches = 0
        self.last_value: Optional[float] = None
        self.burn_short = 0.0
        self.burn_long = 0.0


class SLOMonitor:
    """Evaluates a set of SLOs per sample window (see module docs)."""

    def __init__(self, ob, slos):
        names = [s.name for s in slos]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate SLO names in {names}")
        self.ob = ob
        self.slos: List[SLO] = list(slos)
        self._state = {s.name: _State(s) for s in self.slos}
        #: (cycle, "breach"|"recover", slo name) in emission order
        self.events: List[Tuple[int, str, str]] = []
        self._lat: List[int] = []    # op sojourns since the last tick
        self._ops = 0                # completions since the last tick
        self._started = False        # any op ever completed?
        self._last_tick = ob.machine.sim.now
        self.burn: Dict[str, TimeSeries] = {}
        sampler = ob.sampler
        for s in self.slos:
            ts = TimeSeries(f"slo.{s.name}.burn", kind="gauge",
                            buckets=sampler.buckets,
                            bucket_cycles=sampler.every,
                            t0=self._last_tick, unit="burn")
            self.burn[s.name] = sampler.adopt(ts)

    # -- bus subscriber ---------------------------------------------------
    def on_event(self, t: int, kind: str, f: Dict[str, Any]) -> None:
        if kind == "op.end":
            self._ops += 1
            self._started = True
            self._lat.append(t - f["start"])

    # -- sampler tick subscriber ------------------------------------------
    def on_tick(self, now: int) -> None:
        lats = self._lat
        ops = self._ops
        self._lat = []
        self._ops = 0
        elapsed = now - self._last_tick
        self._last_tick = now
        bus = self.ob.bus
        for s in self.slos:
            st = self._state[s.name]
            bad = self._evaluate(s, st, lats, ops, elapsed)
            if bad is None:
                continue
            st.short.append(bad)
            st.long.append(bad)
            st.burn_short = sum(st.short) / len(st.short) / s.budget
            st.burn_long = sum(st.long) / len(st.long) / s.budget
            self.burn[s.name].record(now, st.burn_short)
            if (not st.breached and st.burn_short >= s.burn_threshold
                    and st.burn_long >= 1.0):
                st.breached = True
                st.breaches += 1
                self.events.append((now, "breach", s.name))
                if "slo.breach" in bus.wanted:
                    bus.emit("slo.breach", slo=s.name, objective=s.kind,
                             target=s.target, value=st.last_value,
                             burn_short=st.burn_short, burn_long=st.burn_long)
            elif st.breached and st.burn_short < 1.0:
                st.breached = False
                self.events.append((now, "recover", s.name))
                if "slo.recover" in bus.wanted:
                    bus.emit("slo.recover", slo=s.name, objective=s.kind,
                             target=s.target, value=st.last_value,
                             burn_short=st.burn_short, burn_long=st.burn_long)

    def _evaluate(self, s: SLO, st: _State, lats: List[int], ops: int,
                  elapsed: int) -> Optional[float]:
        """Badness of the window just closed: 1.0 / 0.0 / None (no data)."""
        if s.kind == "latency":
            if not lats:
                return None
            xs = sorted(lats)
            value = float(xs[min(len(xs) - 1, int(s.quantile * len(xs)))])
            st.last_value = value
            return 1.0 if value > s.target else 0.0
        if s.kind == "goodput":
            # no data until the workload completes its first op: the
            # sample windows that close while threads are still being
            # spawned would otherwise read goodput 0 and page instantly
            if not self._started or elapsed <= 0:
                return None
            clock = self.ob.machine.cfg.clock_mhz
            value = ops * clock / elapsed
            st.last_value = value
            return 1.0 if value < s.target else 0.0
        # qdepth: read the sampled gauge (present once a driver runs)
        series = self.ob.sampler.series.get(s.metric)
        if series is None or not series.samples:
            return None
        value = float(series.last_value)
        st.last_value = value
        return 1.0 if value > s.target else 0.0

    # -- reporting --------------------------------------------------------
    @property
    def breaches(self) -> int:
        return sum(st.breaches for st in self._state.values())

    def summary(self) -> List[Dict[str, Any]]:
        """JSON-ready per-SLO status (dashboards, incident bundles)."""
        out = []
        for s in self.slos:
            st = self._state[s.name]
            out.append({
                "name": s.name,
                "kind": s.kind,
                "target": s.target,
                "budget": s.budget,
                "burn_threshold": s.burn_threshold,
                "windows": [s.short_ticks, s.long_ticks],
                "breached": st.breached,
                "breaches": st.breaches,
                "burn_short": st.burn_short,
                "burn_long": st.burn_long,
                "last_value": st.last_value,
            })
        return out
