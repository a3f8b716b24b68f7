"""The machine-wide observability event bus.

Every hardware model (cache directory, atomics controllers, UDN fabric,
NoC links, the engine itself) and every delegation core publishes
structured events to one :class:`EventBus` hung off the simulator.  The
bus is *opt-in per machine*: :attr:`Simulator.obs` is ``None`` unless
observability was enabled, and every publish site guards with::

    obs = self.sim.obs
    if obs is not None:
        obs.emit("cache.miss", core=cid, line=line_no, ...)

so a run without observability pays exactly one attribute load and a
``None`` comparison per would-be event -- no allocation, no call.

The bus narrates; it does not count.  Publish sites write the perf
counter file (:attr:`EventBus.counters`) themselves, inside the same
guard and just before the ``emit``.

Event taxonomy
--------------
Events are ``(cycle, kind, fields)`` triples.  ``kind`` is a dotted
string naming the subsystem and occurrence; ``fields`` is a small dict.
The kinds emitted by the simulator (fields in parentheses; ``start`` is
the first cycle of a span, the emit time is its end):

=====================  =====================================================
kind                   meaning
=====================  =====================================================
``cache.miss``         a coherence miss was resolved (core, line, op,
                       transition, latency)
``cache.stall``        a core finished stalling on the coherence protocol
                       (core, cycles, why, line, start)
``cache.inval``        a core's cached copy was invalidated
                       (core = the victim, line, by = writer core or
                       None for a memory-controller atomic)
``fence.stall``        fence pipeline cost or store-buffer drain
                       (core, cycles, why, start)
``atomic.exec``        an RMW executed (core, line, ctrl, cold, service)
``atomic.stall``       the issuing core's full RMW round trip
                       (core, cycles, line, start)
``atomic.cas_fail``    a CAS observed an unexpected value (core, line)
``udn.send``           a message was injected (core, dst_tid, dst_core,
                       words, msg_id)
``udn.backpressure``   a sender finished blocking on a full destination
                       buffer (core, dst_core, cycles, start)
``udn.deliver``        words landed in a receive queue (core, demux,
                       words, latency, msg_id)
``udn.recv``           a receive completed (core, tid, words, waited,
                       start)
``udn.timeout``        a timed send/receive expired (core, op, waited)
``noc.link``           a packet occupied one mesh link (a, b, wait, busy,
                       hop = index along the route, msg_id = the UDN
                       message carried, or None for non-UDN packets)
``noc.packet``         a packet fully traversed the contended mesh
                       (src, dst, words, cycles)
``proc.spawn``         a simulator process started (name)
``proc.exit``          a process finished normally (name)
``proc.kill``          a process was fail-stop crashed (name)
``proc.interrupt``     a process was interrupted (name)
``combiner.open``      a thread entered a combining session (core, tid,
                       prim)
``combiner.close``     a combining session ended (core, tid, prim, ops,
                       start)
``server.req``         a dedicated servicing thread completed one request
                       (core, client, prim)
``server.done``        a service span ended: one client request executed
                       and its response issued (core, client, prim,
                       start)
``op.begin``           an application thread issued an operation
                       (core, tid, op = run-unique op id, prim)
``op.end``             the operation completed on the issuing thread
                       (core, tid, op, start, measured = in the
                       measurement window)
``fault.retry``        a client retried an operation after a timeout
                       (core, tid, prim)
``fault.failover``     a client switched servers (core, tid, prim)
``fault.takeover``     a successor seized a stale combiner lease
                       (core, tid, prim)
=====================  =====================================================

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
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

__all__ = ["EventBus", "EventLog"]

log = logging.getLogger(__name__)

Subscriber = Callable[[int, str, Dict[str, Any]], None]


class EventBus:
    """Fan-out of structured observability events to subscribers."""

    __slots__ = ("sim", "counters", "events_emitted", "_subs", "recent",
                 "_recent_append", "_kind_subs")

    def __init__(self, sim):
        self.sim = sim
        #: the machine's PerfCounters (set by Observability)
        self.counters = None
        #: total events published (cheap health metric)
        self.events_emitted = 0
        self._subs: List[Subscriber] = []
        #: bounded ring of the most recent events (see :meth:`keep_recent`)
        self.recent: Optional[deque] = None
        self._recent_append = None
        self._kind_subs: Optional[Dict[str, List[Subscriber]]] = None

    def subscribe(self, fn: Subscriber) -> None:
        """Register ``fn(cycle, kind, fields)`` for every event."""
        self._subs.append(fn)

    def unsubscribe(self, fn: Subscriber) -> None:
        self._subs.remove(fn)

    def subscribe_kinds(self, kinds: Iterable[str], fn: Subscriber) -> None:
        """Register ``fn`` for the listed kinds only.

        Kind-filtered subscribers cost one dict probe per event instead
        of a Python call -- the difference between "can leave it on" and
        "10% tax" for consumers that care about a handful of kinds (SLO
        monitors want ``op.end``, the flight recorder wants its trigger
        kinds).  They run *after* every full subscriber, so a filtered
        handler always observes counter/monitor state already updated
        for the triggering event.
        """
        if self._kind_subs is None:
            self._kind_subs = {}
        for kind in kinds:
            self._kind_subs.setdefault(kind, []).append(fn)

    def keep_recent(self, limit: int) -> deque:
        """Keep a bounded ring of the last ``limit`` events on the bus.

        The append rides inside :meth:`emit` (a C-level deque append,
        no extra Python frame), which is what keeps the flight
        recorder's always-on cost negligible.  Returns the ring.
        """
        if limit < 1:
            raise ValueError(f"event ring limit must be >= 1, got {limit}")
        self.recent = deque(maxlen=limit)
        self._recent_append = self.recent.append
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
