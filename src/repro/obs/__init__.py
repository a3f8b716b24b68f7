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
    rec = obs.record()      # an ObsRecord: plain, picklable data
    write_chrome_trace([rec], "trace.json")
    rec.timeseries["series"]["core.busy"].points()

Across machines (how ``python -m repro run --obs ...`` observes every
machine a sweep builds, in this process or in its workers)::

    with repro.obs.observed(timeseries=True, slos=my_slos) as session:
        result = run_counter_benchmark("mp-server", 10)
    session.records()    # one ObsRecord per observed machine
    session.aggregate()  # merged counters across all of them

Every reader -- the session's merges, the dashboards, the ``--obs``
exports -- reads records only, so a sweep point run in a worker process
(:func:`observe_point`) returns its records with its result and the
parent merges them in submission order.
"""

from __future__ import annotations

import inspect
from contextlib import contextmanager
from dataclasses import dataclass
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
    "ObsRecord",
    "ObsSession",
    "PerfCounters",
    "SLO",
    "SLOMonitor",
    "Sampler",
    "SpatialAtlas",
    "TimeSeries",
    "active_session",
    "attach",
    "counters_csv",
    "latency_bucket",
    "merge_counters",
    "merge_spatial_summaries",
    "observe_point",
    "observed",
    "write_chrome_trace",
]


def _check_limits(trace_limit: int, flight_limit: int,
                  spatial_hop_limit: int, sample_every: int) -> None:
    """Reject a cap or cadence that cannot work, naming the option."""
    for name, value, least in (("trace_limit", trace_limit, 0),
                               ("flight_limit", flight_limit, 1),
                               ("spatial_hop_limit", spatial_hop_limit, 0),
                               ("sample_every", sample_every, 1)):
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
        _check_limits(trace_limit, flight_limit, spatial_hop_limit,
                      sample_every)
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

    def record(self) -> "ObsRecord":
        """This machine's observed state as one picklable record.

        Built when read, never at run end: a run nobody reads pays
        nothing.  The record shares the sampler's rings and the event
        log with this machine, so read it once the run is over.
        """
        m, sampler, mon, flight = self.machine, self.sampler, self.slo, self.flight
        return ObsRecord(
            label=self.label, cores=len(m.cores),
            fingerprint=m.cfg.fingerprint(),
            counters=self.counters.snapshot(),
            timeseries=None if sampler is None else {
                "every": sampler.every, "ticks": sampler.ticks,
                "series": dict(sampler.series)},
            slo=mon.summary() if mon is not None else [],
            slo_events=list(mon.events) if mon is not None else [],
            spatial=self.spatial.summary() if self.spatial is not None else None,
            incidents=list(flight.incidents) if flight is not None else [],
            incident_paths=list(flight.paths) if flight is not None else [],
            trace=self.trace)


@dataclass
class ObsRecord:
    """One observed machine as plain data (DESIGN.md §9).

    What every reader of a session reads -- its merges, the dashboards,
    the ``--obs`` exports -- and what a sweep point run in a worker
    process sends back to its parent.
    """

    label: str                      #: run label (trace process name)
    cores: int
    fingerprint: str                #: the machine config's fingerprint
    counters: Dict[str, Any]        #: :meth:`PerfCounters.snapshot`
    #: ``{"every", "ticks", "series": {name: TimeSeries}}``, or None
    #: when the machine was not sampled
    timeseries: Optional[Dict[str, Any]]
    slo: List[Dict[str, Any]]       #: :meth:`SLOMonitor.summary` statuses
    slo_events: List[Tuple[int, str, str]]  #: (cycle, breach|recover, slo)
    spatial: Optional[Dict[str, Any]]       #: :meth:`SpatialAtlas.summary`
    incidents: List[Dict[str, Any]]         #: flight-recorder bundles
    incident_paths: List[str]               #: where they were written
    trace: Optional[EventLog]               #: the event log (``trace=True``)

    @property
    def breaches(self) -> int:
        """SLO breaches on this machine."""
        return sum(st["breaches"] for st in self.slo)


_OBS_SIGNATURE = inspect.signature(Observability)
#: what a session may set: every Observability keyword but the label
_SESSION_OPTIONS = _OBS_SIGNATURE.replace(parameters=[
    p for p in _OBS_SIGNATURE.parameters.values()
    if p.name not in ("machine", "label")])


class ObsSession:
    """Observes every :class:`Machine` constructed while it is active.

    ``options`` are :class:`Observability`'s keywords, passed to each
    machine's as given and checked here, when the session starts.  The
    session's readers (:meth:`records` and the merges over it) see the
    machines built in this process and the records sweep points sent
    back (:func:`observe_point`), in the order they joined.
    """

    def __init__(self, **options):
        bound = _SESSION_OPTIONS.bind(**options)
        bound.apply_defaults()
        args = bound.arguments
        _check_limits(args["trace_limit"], args["flight_limit"],
                      args["spatial_hop_limit"], args["sample_every"])
        self.options = options
        #: incident-name prefix of the machines this session builds
        self.scope = ""
        self._observed: List[Observability | ObsRecord] = []

    @property
    def machines(self) -> List[Observability]:
        """The live machines observed in this process."""
        return [ob for ob in self._observed if isinstance(ob, Observability)]

    def register(self, ob: Observability) -> None:
        if ob.flight is not None:
            # the session's scope and the machine's ordinal in it name
            # its bundles, the same in a worker process as in this one
            ob.flight.rid = f"{self.scope}m{len(self.machines)}"
        self._observed.append(ob)

    def extend(self, records: Sequence[ObsRecord]) -> None:
        """Add records observed elsewhere (a sweep point's)."""
        self._observed.extend(records)

    def records(self) -> List[ObsRecord]:
        """One record per observed machine, in the order they joined."""
        return [ob.record() if isinstance(ob, Observability) else ob
                for ob in self._observed]

    def aggregate(self) -> Dict[str, Any]:
        """Counters snapshot merged across every observed machine."""
        agg: Dict[str, Any] = {}
        for rec in self.records():
            merge_counters(agg, rec.counters)
        return agg

    def metrics_csv(self) -> str:
        """The aggregated counters as long-format CSV."""
        return counters_csv(self.aggregate())

    def incidents(self) -> List[Dict[str, Any]]:
        """Flight-recorder incident bundles across observed machines."""
        return [doc for rec in self.records() for doc in rec.incidents]

    def breaches(self) -> int:
        """Total SLO breaches across observed machines."""
        return sum(rec.breaches for rec in self.records())

    def spatial_summary(self) -> Optional[Dict[str, Any]]:
        """Atlas summaries merged across like observed machines.

        A sweep observes one machine per point; the merged atlas is the
        whole experiment's congestion picture.  Only machines whose mesh
        shape and ``basis`` match the first atlas-bearing machine's are
        merged (see :func:`merge_spatial_summaries`): ``disc-noc`` puts
        analytic and contended meshes side by side.  Returns ``None``
        when no machine carried an atlas.
        """
        summaries = [rec.spatial for rec in self.records()
                     if rec.spatial is not None]
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
        records = self.records()
        if not any(rec.trace is not None for rec in records):
            raise RuntimeError("no traced machines in this session")
        return write_chrome_trace(records, path)


#: the active session new machines auto-attach to (None = off)
_SESSION: Optional[ObsSession] = None


@contextmanager
def observed(**options):
    """``with repro.obs.observed(**options) as session:`` -- observe
    every machine constructed inside the block.

    Keyword options are :class:`Observability`'s but ``label``:
    ``trace``, ``trace_limit``, ``timeseries``, ``sample_every``,
    ``slos``, ``flight``, ``incident_dir``, ...; a bad one raises here.
    Sessions do not nest.
    """
    global _SESSION
    if _SESSION is not None:
        raise RuntimeError("an observability session is already active")
    _SESSION = session = ObsSession(**options)
    try:
        yield session
    finally:
        _SESSION = None


def active_session() -> Optional[ObsSession]:
    """The session new machines join, or None."""
    return _SESSION


def observe_point(scope: str, options: Dict[str, Any], fn, args: tuple,
                  kwargs: dict) -> Tuple[Any, List[ObsRecord]]:
    """Run ``fn(*args, **kwargs)`` under a session of its own.

    Returns ``(result, records)``.  The point's session stands in for
    the active one during the call and is dropped after it: a worker
    forked from an observed parent inherits the parent's session, and
    a point run in the parent must not add its live machines to it.
    ``scope`` prefixes the point's incident bundle names.
    """
    global _SESSION
    outer = _SESSION
    _SESSION = session = ObsSession(**options)
    session.scope = scope
    try:
        return fn(*args, **kwargs), session.records()
    finally:
        _SESSION = outer


def attach(machine) -> Optional[Observability]:
    """Machine-constructor hook: join the active session, if any."""
    s = _SESSION
    if s is None:
        return None
    ob = Observability(machine, **s.options)
    s.register(ob)
    return ob
