"""The machine-wide observability event bus.

Every hardware model (cache directory, atomics controllers, UDN fabric,
NoC links, the engine itself) and every delegation core publishes
structured events to one :class:`EventBus` hung off the simulator.  The
bus is *opt-in per machine*: :attr:`Simulator.obs` is ``None`` unless
observability was enabled, and it is *opt-in per kind*:
:attr:`EventBus.wanted` is the frozenset of kinds some consumer listens
to.  Every publish site guards with both::

    obs = self.sim.obs
    if obs is not None:
        obs.counters.miss(cid, line_no, "load", transition, latency)
        if "cache.miss" in obs.wanted:
            obs.emit("cache.miss", core=cid, line=line_no, ...)

so a run without observability pays one attribute load and a ``None``
comparison per would-be event, and an observed run pays one set probe
more for a kind nobody listens to -- no ``fields`` dict, no call.  The
check sits at the call site, not inside :meth:`EventBus.emit`: the
Python call and its keyword dict are the cost it saves.

The bus narrates; it does not count.  Publish sites write the perf
counter file (:attr:`EventBus.counters`) themselves, inside the
``None`` guard and outside the ``wanted`` check, so the registers are
the same whoever listens.

What is wanted
--------------
:attr:`EventBus.wanted` is recomputed on every :meth:`~EventBus.subscribe`,
:meth:`~EventBus.unsubscribe`, :meth:`~EventBus.subscribe_kinds` and
:meth:`~EventBus.keep_recent`, as the union of:

* the kinds of every kind-filtered subscription;
* :data:`KINDS` (every kind) while any full subscriber is registered;
* :data:`NARRATED_KINDS` while the bus keeps a recent-events ring (the
  flight recorder's always-on tail).

:meth:`EventBus.emit` itself does not filter: a direct ``bus.emit``
always publishes, and the ring appends whatever the bus carries.

Event taxonomy
--------------
Events are ``(cycle, kind, fields)`` triples.  ``kind`` is a dotted
string naming the subsystem and occurrence; ``fields`` is a small dict.
The kinds emitted by the simulator (fields in parentheses; ``start`` is
the first cycle of a span, the emit time is its end).  A *narrated*
kind is always in the flight ring when a recorder is attached; a
*hardware* kind is built only when a subscriber asks for it (a trace,
a full subscriber).  The perf counter file and the spatial atlas read
registers the models write directly and subscribe to nothing:

=====================  ========  ==========================================
kind                   class     meaning
=====================  ========  ==========================================
``cache.miss``         hardware  a coherence miss was resolved (core, line,
                                 op, transition, latency)
``cache.stall``        hardware  a core finished stalling on the coherence
                                 protocol (core, cycles, why, line, start)
``cache.inval``        hardware  a core's cached copy was invalidated
                                 (core = the victim, line, by = writer core
                                 or None for a memory-controller atomic)
``fence.stall``        hardware  fence pipeline cost or store-buffer drain
                                 (core, cycles, why, start)
``atomic.exec``        hardware  an RMW executed (core, line, ctrl, cold,
                                 service)
``atomic.stall``       hardware  the issuing core's full RMW round trip
                                 (core, cycles, line, start)
``atomic.cas_fail``    hardware  a CAS observed an unexpected value (core,
                                 line)
``udn.send``           hardware  a message was injected (core, dst_tid,
                                 dst_core, words, msg_id)
``udn.backpressure``   hardware  a sender finished blocking on a full
                                 destination buffer (core, dst_core,
                                 cycles, start); read only by a trace:
                                 the atlas reads the counter file's
                                 ``backpressure_cycles``
``udn.deliver``        hardware  words landed in a receive queue (core,
                                 demux, words, latency, msg_id)
``udn.recv``           hardware  a receive completed (core, tid, words,
                                 waited, start)
``udn.timeout``        narrated  a timed send/receive expired (core, op,
                                 waited)
``noc.link``           hardware  a packet occupied one mesh link (a, b,
                                 wait, busy, hop = index along the route,
                                 msg_id = the UDN message carried, or None
                                 for non-UDN packets); read only by a
                                 trace: the atlas reads the ``link``
                                 registers, and per-hop waits ride the
                                 hop ledger's records
``noc.packet``         hardware  a packet fully traversed the contended
                                 mesh (src, dst, words, cycles)
``proc.spawn``         hardware  a simulator process started (name)
``proc.exit``          hardware  a process finished normally (name)
``proc.kill``          narrated  a process was fail-stop crashed (name)
``proc.interrupt``     narrated  a process was interrupted (name)
``combiner.open``      narrated  a thread entered a combining session
                                 (core, tid, prim)
``combiner.close``     narrated  a combining session ended (core, tid,
                                 prim, ops, start)
``server.req``         narrated  a dedicated servicing thread completed one
                                 request (core, client, prim)
``server.done``        narrated  a service span ended: one client request
                                 executed and its response issued (core,
                                 client, prim, start)
``op.begin``           narrated  an application thread issued an operation
                                 (core, tid, op = run-unique op id, prim)
``op.end``             narrated  the operation completed on the issuing
                                 thread (core, tid, op, start, measured =
                                 in the measurement window)
``fault.retry``        narrated  a client retried an operation after a
                                 timeout (core, tid, prim)
``fault.failover``     narrated  a client switched servers (core, tid,
                                 prim)
``fault.takeover``     narrated  a successor seized a stale combiner lease
                                 (core, tid, prim)
``dispatch.timeout``   narrated  a timed shm-server request went unclaimed
                                 and was withdrawn (core, tid, prim,
                                 waited)
``admit.enqueue``      narrated  an open-loop arrival joined its client's
                                 admission queue (tid, op, depth)
``admit.shed``         narrated  an arrival or a request was dropped (tid,
                                 op = -1 for a retry budget spent, depth,
                                 reason = queue-full or timeout)
``admit.retry``        narrated  a timed dispatch expired and the client
                                 backs off before retrying (tid, attempt,
                                 backoff)
``admit.breaker``      narrated  the circuit breaker opened or closed (tid,
                                 state, until)
``slo.breach``         narrated  an SLO monitor started burning its budget
                                 (slo, objective, target, value,
                                 burn_short, burn_long)
``slo.recover``        narrated  a breached SLO recovered (same fields)
=====================  ========  ==========================================

Subscribers are plain callables ``fn(cycle, kind, fields)``; they must
treat events as read-only and must not touch simulation state (the bus
is an observer, never an actor -- enabling it cannot change an
execution).  Every :meth:`EventBus.emit` builds a fresh ``fields`` dict,
so a subscriber may keep it without copying.

:class:`EventLog` is the one recording of a machine's bus: the Perfetto
export, the critical-path analysis, the link-flow join and the ASCII
timeline all read its ``(cycle, kind, fields)`` events after the run.
"""

from __future__ import annotations

from collections import deque
import logging
from typing import (Any, Callable, Dict, FrozenSet, Iterable, List, Optional,
                    Tuple)

__all__ = ["EventBus", "EventLog", "KINDS", "NARRATED_KINDS"]

log = logging.getLogger(__name__)

Subscriber = Callable[[int, str, Dict[str, Any]], None]

#: the kinds the flight ring narrates (the table's ``narrated`` rows):
#: ops, service spans, combining sessions, faults, admission, timeouts,
#: crashes and SLO alerts
NARRATED_KINDS: FrozenSet[str] = frozenset({
    "op.begin", "op.end",
    "server.req", "server.done",
    "combiner.open", "combiner.close",
    "fault.retry", "fault.failover", "fault.takeover",
    "admit.enqueue", "admit.shed", "admit.retry", "admit.breaker",
    "dispatch.timeout", "udn.timeout",
    "proc.kill", "proc.interrupt",
    "slo.breach", "slo.recover",
})

#: every kind the simulator emits (the taxonomy table, as code): what a
#: full subscriber wants.  The table's ``hardware`` rows are the rest.
KINDS: FrozenSet[str] = NARRATED_KINDS | frozenset({
    "cache.miss", "cache.stall", "cache.inval", "fence.stall",
    "atomic.exec", "atomic.stall", "atomic.cas_fail",
    "udn.send", "udn.backpressure", "udn.deliver", "udn.recv",
    "noc.link", "noc.packet",
    "proc.spawn", "proc.exit",
})


class EventBus:
    """Fan-out of structured observability events to subscribers."""

    __slots__ = ("sim", "counters", "events_emitted", "wanted", "_subs",
                 "recent", "_recent_append", "_kind_subs")

    def __init__(self, sim):
        self.sim = sim
        #: the machine's PerfCounters (set by Observability)
        self.counters = None
        #: total events published (cheap health metric)
        self.events_emitted = 0
        #: the kinds some consumer listens to; publish sites build an
        #: event only when its kind is in here
        self.wanted: FrozenSet[str] = frozenset()
        self._subs: List[Subscriber] = []
        #: bounded ring of the most recent events (see :meth:`keep_recent`)
        self.recent: Optional[deque] = None
        self._recent_append = None
        self._kind_subs: Optional[Dict[str, List[Subscriber]]] = None

    def _rewant(self) -> None:
        wanted = set(self._kind_subs or ())
        if self._subs:
            wanted |= KINDS
        if self.recent is not None:
            wanted |= NARRATED_KINDS
        self.wanted = frozenset(wanted)

    def subscribe(self, fn: Subscriber) -> None:
        """Register ``fn(cycle, kind, fields)`` for every event."""
        self._subs.append(fn)
        self._rewant()

    def unsubscribe(self, fn: Subscriber) -> None:
        """Remove ``fn`` from the full and the kind-filtered subscribers."""
        found = fn in self._subs
        if found:
            self._subs.remove(fn)
        ks = self._kind_subs or {}
        for kind, fns in list(ks.items()):
            if fn in fns:
                found = True
                fns.remove(fn)
                if not fns:
                    del ks[kind]
        if not found:
            raise ValueError(f"{fn!r} is not subscribed to this bus")
        self._kind_subs = ks or None
        self._rewant()

    def subscribe_kinds(self, kinds: Iterable[str], fn: Subscriber) -> None:
        """Register ``fn`` for the listed kinds only.

        Kind-filtered subscribers cost one dict probe per event instead
        of a Python call -- the difference between "can leave it on" and
        "10% tax" for consumers that care about a handful of kinds (SLO
        monitors want ``op.end``, the flight recorder wants its trigger
        kinds) -- and leave every other kind unbuilt unless someone else
        wants it.  They run *after* every full subscriber, so a filtered
        handler always observes counter/monitor state already updated
        for the triggering event.
        """
        if self._kind_subs is None:
            self._kind_subs = {}
        for kind in kinds:
            self._kind_subs.setdefault(kind, []).append(fn)
        self._rewant()

    def keep_recent(self, limit: int) -> deque:
        """Keep a bounded ring of the last ``limit`` events on the bus.

        The append rides inside :meth:`emit` (a C-level deque append,
        no extra Python frame), which is what keeps the flight
        recorder's always-on cost negligible.  The ring adds
        :data:`NARRATED_KINDS` to :attr:`wanted`; it holds hardware
        kinds only when another consumer wants them.  Returns the ring.
        """
        if limit < 1:
            raise ValueError(f"event ring limit must be >= 1, got {limit}")
        self.recent = deque(maxlen=limit)
        self._recent_append = self.recent.append
        self._rewant()
        return self.recent

    def emit(self, kind: str, **fields: Any) -> None:
        """Publish one event at the current cycle."""
        self.events_emitted += 1
        t = self.sim.now
        ra = self._recent_append
        if ra is not None:
            ra((t, kind, fields))
        for fn in self._subs:
            fn(t, kind, fields)
        ks = self._kind_subs
        if ks is not None:
            fns = ks.get(kind)
            if fns is not None:
                for fn in fns:
                    fn(t, kind, fields)


class EventLog:
    """A machine's raw bus events, in emission order, up to a cap.

    Subscribed kind-filtered to the kinds its readers need.  Each event
    keeps the dict :meth:`EventBus.emit` built for it (no copy).  Past
    ``limit`` events the log drops the rest, counts them in
    :attr:`dropped` and flags itself :attr:`truncated`, so readers can
    say "partial data" instead of silently lying.
    """

    __slots__ = ("limit", "dropped", "events")

    def __init__(self, limit: int = 2_000_000):
        self.limit = limit
        self.dropped = 0
        #: (cycle, kind, fields) in emission order
        self.events: List[Tuple[int, str, Dict[str, Any]]] = []

    @property
    def truncated(self) -> bool:
        return self.dropped > 0

    def on_event(self, t: int, kind: str, f: Dict[str, Any]) -> None:
        if len(self.events) >= self.limit:
            if self.dropped == 0:
                log.warning(
                    "event log hit its %d-event cap; traces and "
                    "critical-path reports for this run are computed "
                    "from partial data", self.limit)
            self.dropped += 1
            return
        self.events.append((t, kind, f))
