"""Machine-wide observability: event bus, counters, traces, telemetry.

Layers (see DESIGN.md §9 and §14):

* :class:`~repro.obs.bus.EventBus` -- the structured event stream every
  hardware model and delegation core publishes to.  Off by default;
  zero overhead when off.
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

from contextlib import contextmanager
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.obs.bus import EventBus, EventLog
from repro.obs.counters import PerfCounters, counters_csv, latency_bucket, merge_counters
from repro.obs.flightrec import TRIGGERS as flightrec_triggers
from repro.obs.flightrec import FlightRecorder
from repro.obs.perfetto import TRACE_KINDS, write_chrome_trace
from repro.obs.slo import SLO, SLOMonitor
from repro.obs.spatial import SPATIAL_KINDS, SpatialAtlas, merge_spatial_summaries
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


class Observability:
    """One machine's observability: bus + counters (+ optional layers)."""

    def __init__(self, machine, *, trace: bool = False,
                 trace_limit: int = 2_000_000, label: Optional[str] = None,
                 timeseries: bool = False, sample_every: int = 512,
                 ts_buckets: int = 256, slos: Sequence[SLO] = (),
                 flight: bool = False, flight_limit: int = 4096,
                 incident_dir: Optional[str] = None,
                 spatial: bool = False, spatial_hops: bool = False,
                 spatial_hop_limit: int = 100_000):
        if machine.sim.obs is not None:
            raise RuntimeError("observability already enabled on this machine")
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
        # spatial congestion atlas (DESIGN.md §15): send/deliver totals
        # are counted inline in the UDN fabric (installed by the atlas
        # constructor); the bus only carries the rare kinds -- plus
        # per-message send/deliver when the hop ledger is on
        self.spatial: Optional[SpatialAtlas] = None
        if spatial or spatial_hops:
            self.spatial = SpatialAtlas(machine, hops=spatial_hops,
                                        hop_limit=spatial_hop_limit)
            self.bus.subscribe_kinds(self.spatial.bus_kinds(),
                                     self.spatial.on_event)
        # continuous telemetry (DESIGN.md §14): sampler -> SLOs -> flight
        self.sampler: Optional[Sampler] = None
        self.slo: Optional[SLOMonitor] = None
        self.flight: Optional[FlightRecorder] = None
        if timeseries or slos:
            self.sampler = Sampler(machine.sim, every=sample_every,
                                   buckets=ts_buckets)
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


class ObsSession:
    """Observes every :class:`Machine` constructed while it is active."""

    def __init__(self, *, trace: bool = False, trace_limit: int = 2_000_000,
                 timeseries: bool = False, sample_every: int = 512,
                 ts_buckets: int = 256, slos: Sequence[SLO] = (),
                 flight: bool = False, flight_limit: int = 4096,
                 incident_dir: Optional[str] = None,
                 spatial: bool = False, spatial_hops: bool = False,
                 spatial_hop_limit: int = 100_000):
        self.trace = trace
        self.trace_limit = trace_limit
        self.timeseries = timeseries
        self.sample_every = sample_every
        self.ts_buckets = ts_buckets
        self.slos = tuple(slos)
        self.flight = flight
        self.flight_limit = flight_limit
        self.incident_dir = incident_dir
        self.spatial = spatial
        self.spatial_hops = spatial_hops
        self.spatial_hop_limit = spatial_hop_limit
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
        """Atlas summaries merged across same-shaped observed machines.

        A sweep observes one machine per point; the merged atlas is the
        whole experiment's congestion picture.  Machines whose mesh
        shape differs from the first atlas-bearing machine are skipped
        (summing a 6x6 onto an 8x8 would misplace every tile) -- today
        every sweep builds same-profile machines, so this is purely
        defensive.  Returns ``None`` when no machine carried an atlas.
        """
        summaries = [ob.spatial.summary() for ob in self.machines
                     if ob.spatial is not None]
        if not summaries:
            return None
        shape = summaries[0]["mesh"]
        return merge_spatial_summaries(
            [s for s in summaries if s["mesh"] == shape])

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

    Keyword options are those of :class:`ObsSession` /
    :class:`Observability`: ``trace``, ``trace_limit``, ``timeseries``,
    ``sample_every``, ``slos``, ``flight``, ``incident_dir``, ...
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
    ob = Observability(machine, trace=s.trace, trace_limit=s.trace_limit,
                       timeseries=s.timeseries, sample_every=s.sample_every,
                       ts_buckets=s.ts_buckets, slos=s.slos,
                       flight=s.flight, flight_limit=s.flight_limit,
                       incident_dir=s.incident_dir,
                       spatial=s.spatial, spatial_hops=s.spatial_hops,
                       spatial_hop_limit=s.spatial_hop_limit)
    s.register(ob)
    return ob
