"""Machine-wide observability: event bus, counters, traces, telemetry.

Layers (see DESIGN.md §9 and §14):

* :class:`~repro.obs.bus.EventBus` -- the structured event stream every
  hardware model and delegation core publishes to.  Off by default;
  zero overhead when off.  When on, a kind is built only while some
  consumer wants it (``EventBus.wanted``).
* :class:`~repro.obs.counters.PerfCounters` -- the "perf counter file":
  per-core / per-cache-line / per-link registers and a UDN latency
  histogram, written directly by the hardware models and queryable as
  before/after snapshots.
* :class:`~repro.obs.bus.EventLog` -- the one recording of a machine's
  bus (``trace=True``): the Chrome/Perfetto export (open the exported
  ``trace.json`` in https://ui.perfetto.dev or ``chrome://tracing``),
  the critical-path analysis and the ASCII timeline all read it.
* :class:`~repro.obs.timeseries.Sampler` -- continuous telemetry: the
  engine clock snapshots counter/gauge sources into fixed-memory ring
  series every ``sample_every`` cycles (``timeseries=True``).
* :class:`~repro.obs.slo.SLOMonitor` -- declarative SLOs evaluated per
  sample window with burn-rate alerting (``slos=(...)``).
* :class:`~repro.obs.flightrec.FlightRecorder` -- bounded ring of
  recent events with automatic JSON incident bundles on deadlock,
  crash, timeout storm, or SLO breach (``flight=True``).
* :class:`~repro.obs.spatial.SpatialAtlas` -- mesh-shaped congestion
  atlas: per-link/per-tile traffic, occupancy and backpressure with
  optional hop-by-hop latency attribution (``spatial=True`` /
  ``spatial_hops=True``); feeds the heatmap renderers, the hotspot
  report and ``repro diff``.

Per machine::

    machine = Machine(tile_gx())
    obs = machine.enable_observability(trace=True, timeseries=True)
    ...  # run
    obs.export_chrome_trace("trace.json")
    obs.sampler.series["core.busy"].points()

Across machines (how ``python -m repro report`` observes every machine
a sweep builds internally)::

    with repro.obs.observed(timeseries=True, slos=my_slos) as session:
        result = run_counter_benchmark("mp-server", 10)
    session.aggregate()  # merged counters across all observed machines
"""

from __future__ import annotations

import inspect
from contextlib import contextmanager
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.obs.bus import EventBus, EventLog
from repro.obs.counters import PerfCounters, counters_csv, latency_bucket, merge_counters
from repro.obs.flightrec import TRIGGERS as flightrec_triggers
from repro.obs.flightrec import FlightRecorder
from repro.obs.perfetto import TRACE_KINDS, write_chrome_trace
from repro.obs.slo import SLO, SLOMonitor
from repro.obs.spatial import SpatialAtlas, merge_spatial_summaries
from repro.obs.timeseries import Sampler, TimeSeries, register_machine_sources

__all__ = [
    "EventBus",
    "EventLog",
    "FlightRecorder",
    "Observability",
    "ObsSession",
    "PerfCounters",
    "SLO",
    "SLOMonitor",
    "Sampler",
    "SpatialAtlas",
    "TimeSeries",
    "attach",
    "counters_csv",
    "disable",
    "enable",
    "latency_bucket",
    "merge_counters",
    "merge_spatial_summaries",
    "observed",
    "write_chrome_trace",
]


def _check_limits(trace_limit: int, flight_limit: int,
                  spatial_hop_limit: int) -> None:
    """Reject a cap that would silently keep nothing, naming the option."""
    for name, value, least in (("trace_limit", trace_limit, 0),
                               ("flight_limit", flight_limit, 1),
                               ("spatial_hop_limit", spatial_hop_limit, 0)):
        if value < least:
            raise ValueError(f"{name} must be >= {least}, got {value}")


class Observability:
    """One machine's observability: bus + counters (+ optional layers)."""

    def __init__(self, machine, *, trace: bool = False,
                 trace_limit: int = 2_000_000, label: Optional[str] = None,
                 timeseries: bool = False, sample_every: int = 512,
                 slos: Sequence[SLO] = (),
                 flight: bool = False, flight_limit: int = 4096,
                 incident_dir: Optional[str] = None,
                 spatial: bool = False, spatial_hops: bool = False,
                 spatial_hop_limit: int = 100_000):
        if machine.sim.obs is not None:
            raise RuntimeError("observability already enabled on this machine")
        _check_limits(trace_limit, flight_limit, spatial_hop_limit)
        self.machine = machine
        #: free-form run label (process name in merged traces)
        self.label = label or machine.cfg.name
        self.bus = EventBus(machine.sim)
        # written directly by the hardware models; subscribes to nothing
        self.counters = self.bus.counters = PerfCounters(machine)
        # the one recording of the bus: Perfetto export, critical path,
        # link flows and the ASCII timeline all read it after the run
        self.trace: Optional[EventLog] = None
        if trace:
            self.trace = EventLog(limit=trace_limit)
            self.bus.subscribe_kinds(TRACE_KINDS, self.trace.on_event)
        # spatial congestion atlas (DESIGN.md §15): a view over the UDN
        # fabric's inline totals and the counter file; no subscription
        self.spatial: Optional[SpatialAtlas] = None
        if spatial or spatial_hops:
            self.spatial = SpatialAtlas(machine, self.counters,
                                        hops=spatial_hops,
                                        hop_limit=spatial_hop_limit)
        # continuous telemetry (DESIGN.md §14): sampler -> SLOs -> flight
        self.sampler: Optional[Sampler] = None
        self.slo: Optional[SLOMonitor] = None
        self.flight: Optional[FlightRecorder] = None
        if timeseries or slos:
            self.sampler = Sampler(machine.sim, every=sample_every)
            register_machine_sources(self.sampler, machine, self.counters)
            machine.sim.set_sample_hook(sample_every, self.sampler.on_tick)
            if self.spatial is not None:
                self.spatial.attach_sampler(self.sampler)
        if slos:
            self.slo = SLOMonitor(self, slos)
            # kind-filtered: the monitor only consumes op completions
            self.bus.subscribe_kinds(("op.end",), self.slo.on_event)
            self.sampler.subscribe(self.slo.on_tick)
        if flight:
            # the recorder rides the bus's recent-events ring; its
            # trigger subscription is kind-filtered and registered last,
            # so a dump triggered by an event (slo.breach, proc.kill)
            # sees every earlier subscriber's state updated
            self.flight = FlightRecorder(self, limit=flight_limit,
                                         out_dir=incident_dir)
            self.bus.subscribe_kinds(sorted(flightrec_triggers),
                                     self.flight.on_trigger)
        machine.sim.obs = self.bus

    def export_chrome_trace(self, path: str) -> int:
        """Write this machine's trace as Chrome/Perfetto JSON.

        Sampled time series (when ``timeseries=True``) ride along as
        Perfetto counter tracks, so the trace viewer and the HTML
        dashboard read the same data.
        """
        if self.trace is None:
            raise RuntimeError("tracing was not enabled; pass trace=True")
        counters = [(self.label, self.sampler)] if self.sampler else []
        return write_chrome_trace([self._trace_run()], path,
                                  counters=counters)

    def _trace_run(self) -> Tuple[str, EventLog, int]:
        return self.label, self.trace, len(self.machine.cores)


_OBS_SIGNATURE = inspect.signature(Observability)
#: what a session may set: every Observability keyword but the label
_SESSION_OPTIONS = _OBS_SIGNATURE.replace(parameters=[
    p for p in _OBS_SIGNATURE.parameters.values()
    if p.name not in ("machine", "label")])


class ObsSession:
    """Observes every :class:`Machine` constructed while it is active.

    ``options`` are :class:`Observability`'s keywords, passed to each
    machine's as given and checked here, when the session starts.
    """

    def __init__(self, **options):
        bound = _SESSION_OPTIONS.bind(**options)
        bound.apply_defaults()
        args = bound.arguments
        _check_limits(args["trace_limit"], args["flight_limit"],
                      args["spatial_hop_limit"])
        self.options = options
        self.machines: List[Observability] = []

    def register(self, ob: Observability) -> None:
        self.machines.append(ob)

    def reset(self) -> None:
        """Forget observed machines (e.g. between experiments)."""
        self.machines.clear()

    def aggregate(self) -> Dict[str, Any]:
        """Counters snapshot merged across every observed machine."""
        agg: Dict[str, Any] = {}
        for ob in self.machines:
            merge_counters(agg, ob.counters.snapshot())
        return agg

    def metrics_csv(self) -> str:
        """The aggregated counters as long-format CSV."""
        return counters_csv(self.aggregate())

    def incidents(self) -> List[Dict[str, Any]]:
        """Flight-recorder incident bundles across observed machines."""
        out: List[Dict[str, Any]] = []
        for ob in self.machines:
            if ob.flight is not None:
                out.extend(ob.flight.incidents)
        return out

    def breaches(self) -> int:
        """Total SLO breaches across observed machines."""
        return sum(ob.slo.breaches for ob in self.machines
                   if ob.slo is not None)

    def spatial_summary(self) -> Optional[Dict[str, Any]]:
        """Atlas summaries merged across like observed machines.

        A sweep observes one machine per point; the merged atlas is the
        whole experiment's congestion picture.  Only machines whose mesh
        shape and ``basis`` match the first atlas-bearing machine's are
        merged (see :func:`merge_spatial_summaries`): ``disc-noc`` puts
        analytic and contended meshes side by side.  Returns ``None``
        when no machine carried an atlas.
        """
        summaries = [ob.spatial.summary() for ob in self.machines
                     if ob.spatial is not None]
        if not summaries:
            return None
        first = summaries[0]
        return merge_spatial_summaries(
            [s for s in summaries if s["mesh"] == first["mesh"]
             and s["basis"] == first["basis"]])

    def export_chrome_trace(self, path: str) -> int:
        """Merge every observed machine's trace into one file.

        Each machine becomes one "process" in the trace, labelled with
        its run name, so a sweep's points sit side by side in Perfetto.
        """
        traced = [ob for ob in self.machines if ob.trace is not None]
        if not traced:
            raise RuntimeError("no traced machines in this session")
        counters = [(ob.label, ob.sampler) for ob in traced
                    if ob.sampler is not None]
        return write_chrome_trace([ob._trace_run() for ob in traced], path,
                                  counters=counters)


#: the active session new machines auto-attach to (None = off)
_SESSION: Optional[ObsSession] = None


def enable(**options) -> ObsSession:
    """Start observing every machine constructed from now on.

    Keyword options are :class:`Observability`'s but ``label``:
    ``trace``, ``trace_limit``, ``timeseries``, ``sample_every``,
    ``slos``, ``flight``, ``incident_dir``, ...; a bad one raises here.
    """
    global _SESSION
    if _SESSION is not None:
        raise RuntimeError("an observability session is already active")
    _SESSION = ObsSession(**options)
    return _SESSION


def disable() -> None:
    """Stop auto-attaching observability to new machines."""
    global _SESSION
    _SESSION = None


@contextmanager
def observed(**options):
    """``with repro.obs.observed() as session:`` scoped session."""
    session = enable(**options)
    try:
        yield session
    finally:
        disable()


def attach(machine) -> Optional[Observability]:
    """Machine-constructor hook: join the active session, if any."""
    s = _SESSION
    if s is None:
        return None
    ob = Observability(machine, **s.options)
    s.register(ob)
    return ob
