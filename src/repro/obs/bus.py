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
        obs.counters.line[line_no]["cas_failures"] += 1
        if "atomic.cas_fail" in obs.wanted:
            obs.emit("atomic.cas_fail", core.cid, line_no)

so a run without observability pays one attribute load and a ``None``
comparison per would-be event, and an observed run pays one set probe
more for a kind nobody listens to -- no argument tuple, no call.  The
check sits at the call site, not inside :meth:`EventBus.emit`: the
Python call is the cost it saves.

The bus narrates; it does not count.  Publish sites write the perf
counter file's registers (:attr:`EventBus.counters`) in place, inside
the ``None`` guard and outside the ``wanted`` check, so the registers
are the same whoever listens.

What is wanted
--------------
Every subscription names its kinds (:meth:`~EventBus.subscribe_kinds`;
a consumer of everything passes :data:`KINDS`).
:attr:`EventBus.wanted` is recomputed on every subscription and on
:meth:`~EventBus.keep_recent`, as the union of:

* the kinds of every subscription;
* :data:`NARRATED_KINDS` while the bus keeps a recent-events ring (the
  flight recorder's always-on tail).

:meth:`EventBus.emit` itself does not filter: a direct ``bus.emit``
always publishes, and the ring appends whatever the bus carries.

Events
------
Events are ``(cycle, kind, args)`` triples.  ``kind`` is a dotted
string naming the subsystem and occurrence; ``args`` is the tuple of
the kind's field values, in the order :data:`SCHEMA` names them -- the
one place a kind's class and fields are written down.  As in a UDN
request, the words carry no names: a post-run reader gets them named
(the log's index, :func:`named`), a hot reader looks its field's index
up in :data:`SCHEMA` once.  A *narrated* kind is always in the flight ring
when a recorder is attached; a *hardware* kind is built only when a
subscriber asks for it (a trace, a consumer of every kind).  The perf counter
file and the spatial atlas read registers the models write directly
and subscribe to nothing.

Subscribers are plain callables ``fn(cycle, kind, args)``; they must
not touch simulation state (the bus is an observer, never an actor --
enabling it cannot change an execution).  ``args`` is a tuple, so an
event is read-only and a subscriber may keep it without copying.

:class:`EventLog` is the one recording of a machine's bus, and
:meth:`EventLog.index` its one reading (:class:`LogIndex`): the Perfetto
export, the critical-path analysis, the atlas's hop records, the
link-flow join and the ASCII timeline all read the index after the run.
"""

from __future__ import annotations

from collections import deque, namedtuple
from dataclasses import dataclass, field
import logging
import pickle
from typing import (Any, Callable, Dict, FrozenSet, Iterable, List, Optional,
                    Tuple)

__all__ = ["EventBus", "EventLog", "KINDS", "LOG_KINDS", "LogIndex",
           "NARRATED_KINDS", "SCHEMA", "named"]

log = logging.getLogger(__name__)

Subscriber = Callable[[int, str, Tuple[Any, ...]], None]

#: kind -> (class, field names in emit order).  ``start`` is the first
#: cycle of a span (the emit cycle is its end); ``core`` is the core the
#: event happened on, ``tid`` the thread, ``prim`` the primitive's name.
SCHEMA: Dict[str, Tuple[str, Tuple[str, ...]]] = {
    # a coherence miss was resolved
    "cache.miss": ("hardware", ("core", "line", "op", "transition", "latency")),
    # a core finished stalling on the coherence protocol
    "cache.stall": ("hardware", ("core", "cycles", "line", "why", "start")),
    # core's copy was invalidated by writer core ``by`` (None: a controller)
    "cache.inval": ("hardware", ("core", "line", "by")),
    # fence pipeline cost or store-buffer drain
    "fence.stall": ("hardware", ("core", "cycles", "why", "start")),
    # an RMW executed (``ctrl``: the controller's node, None in-cache)
    "atomic.exec": ("hardware", ("core", "line", "ctrl", "cold", "service")),
    # the issuing core's full RMW round trip
    "atomic.stall": ("hardware", ("core", "cycles", "line", "start")),
    # a CAS observed an unexpected value
    "atomic.cas_fail": ("hardware", ("core", "line")),
    # a message was injected
    "udn.send": ("hardware", ("core", "dst_tid", "dst_core", "words", "msg_id")),
    # a sender finished blocking on a full destination buffer
    "udn.backpressure": ("hardware", ("core", "cycles", "dst_core", "start")),
    # words landed in a receive queue
    "udn.deliver": ("hardware", ("core", "demux", "words", "latency", "msg_id")),
    # a receive completed
    "udn.recv": ("hardware", ("core", "tid", "words", "waited", "start")),
    # a timed send/receive expired (``op``: "send" or "receive")
    "udn.timeout": ("narrated", ("core", "op", "waited")),
    # a packet held link a->b at route index ``hop`` (msg_id None: not UDN)
    "noc.link": ("hardware", ("a", "b", "wait", "busy", "hop", "msg_id")),
    # a packet fully traversed the contended mesh
    "noc.packet": ("hardware", ("src", "dst", "words", "cycles")),
    # a simulator process started: threads and drivers only, since the
    # background hardware transactions (store drains, prefetches,
    # contended packets) run as unnamed tasks and emit nothing
    "proc.spawn": ("hardware", ("name",)),
    # a process finished normally (threads and drivers only, as above)
    "proc.exit": ("hardware", ("name",)),
    # a process was fail-stop crashed
    "proc.kill": ("narrated", ("name",)),
    # a process was interrupted
    "proc.interrupt": ("narrated", ("name",)),
    # a thread entered a combining session
    "combiner.open": ("narrated", ("core", "tid", "prim")),
    # a combining session of ``ops`` requests ended
    "combiner.close": ("narrated", ("core", "tid", "prim", "ops", "start")),
    # a service span ended: one request executed and its response issued
    "server.done": ("narrated", ("core", "client", "prim", "start")),
    # an application thread issued op ``op`` (a run-unique id)
    "op.begin": ("narrated", ("core", "tid", "op", "prim")),
    # the op completed (``measured``: inside the measurement window)
    "op.end": ("narrated", ("core", "tid", "op", "start", "measured")),
    # a client retried an operation after a timeout
    "fault.retry": ("narrated", ("core", "tid", "prim")),
    # a client switched servers
    "fault.failover": ("narrated", ("core", "tid", "prim")),
    # a successor seized a stale combiner lease
    "fault.takeover": ("narrated", ("core", "tid", "prim")),
    # a timed shm-server request went unclaimed and was withdrawn
    "dispatch.timeout": ("narrated", ("core", "tid", "prim", "waited")),
    # an open-loop arrival joined its client's admission queue
    "admit.enqueue": ("narrated", ("tid", "op", "depth")),
    # an arrival was dropped (op -1: a spent retry budget; reason: why)
    "admit.shed": ("narrated", ("tid", "op", "depth", "reason")),
    # a timed dispatch expired and the client backs off before retrying
    "admit.retry": ("narrated", ("tid", "attempt", "backoff")),
    # the circuit breaker opened or closed
    "admit.breaker": ("narrated", ("tid", "state", "until")),
    # an SLO monitor started burning its budget
    "slo.breach": ("narrated", ("slo", "objective", "target", "value",
                                "burn_short", "burn_long")),
    # a breached SLO recovered
    "slo.recover": ("narrated", ("slo", "objective", "target", "value",
                                 "burn_short", "burn_long")),
}

#: every kind the simulator emits: what a consumer of everything subscribes to
KINDS: FrozenSet[str] = frozenset(SCHEMA)

#: the kinds the flight ring narrates: ops, service spans, combining
#: sessions, faults, admission, timeouts, crashes and SLO alerts
NARRATED_KINDS: FrozenSet[str] = frozenset(
    kind for kind, (cls, _fields) in SCHEMA.items() if cls == "narrated")


def named(kind: str, args: Tuple[Any, ...]) -> Dict[str, Any]:
    """One event's fields as a ``{name: value}`` dict (post-run readers)."""
    return dict(zip(SCHEMA[kind][1], args))


class EventBus:
    """Fan-out of structured observability events to subscribers."""

    __slots__ = ("sim", "counters", "events_emitted", "wanted",
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
        #: bounded ring of the most recent events (see :meth:`keep_recent`)
        self.recent: Optional[deque] = None
        self._recent_append = None
        self._kind_subs: Optional[Dict[str, List[Subscriber]]] = None

    def _rewant(self) -> None:
        wanted = set(self._kind_subs or ())
        if self.recent is not None:
            wanted |= NARRATED_KINDS
        self.wanted = frozenset(wanted)

    def subscribe_kinds(self, kinds: Iterable[str], fn: Subscriber) -> None:
        """Register ``fn(cycle, kind, args)`` for the listed kinds.

        Any other kind costs ``fn`` nothing: its events cost one dict
        probe in :meth:`emit` instead of a Python call -- the difference
        between "can leave it on" and "10% tax" for consumers that care
        about a handful of kinds (SLO monitors want ``op.end``, the
        flight recorder wants its trigger kinds) -- and are not built at
        all unless another subscription lists them.
        A kind's subscribers run in the order they subscribed, so a
        handler observes the state every earlier one updated for the
        triggering event.
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

    def emit(self, kind: str, *args: Any) -> None:
        """Publish one event at the current cycle.

        ``args`` are the kind's :data:`SCHEMA` fields, in order.
        """
        self.events_emitted += 1
        t = self.sim.now
        ra = self._recent_append
        if ra is not None:
            ra((t, kind, args))
        ks = self._kind_subs
        if ks is not None:
            fns = ks.get(kind)
            if fns is not None:
                for fn in fns:
                    fn(t, kind, args)


class EventLog:
    """A machine's raw bus events, in emission order, up to a cap.

    Subscribed kind-filtered to :data:`LOG_KINDS`, the kinds its one
    reader, :meth:`index`, reads.  Each event keeps the argument tuple
    :meth:`EventBus.emit` was called with (no copy, no dict).  Past
    ``limit`` events the log drops the rest, counts them in
    :attr:`dropped` and flags itself :attr:`truncated`.  A log pickles
    as one bytes blob and an unpickled log keeps it: :meth:`index`
    decodes it for one reading only, and ``len`` not at all.
    """

    __slots__ = ("limit", "dropped", "_events", "_blob", "_count")

    def __init__(self, limit: int = 2_000_000):
        self.limit = limit
        self.dropped = 0
        self._events: Optional[List[Tuple[int, str, Tuple[Any, ...]]]] = []
        self._blob: Optional[bytes] = None  # the events, pickled elsewhere
        self._count = 0

    @property
    def truncated(self) -> bool:
        return self.dropped > 0

    @property
    def events(self) -> List[Tuple[int, str, Tuple[Any, ...]]]:
        """``(cycle, kind, args)`` in emission order.  Reading them
        decodes a held log for good; readers use :meth:`index`."""
        if self._blob is not None:
            self._events, self._blob = pickle.loads(self._blob), None
        return self._events

    def __len__(self) -> int:
        return self._count if self._blob is not None else len(self._events)

    def __getstate__(self):
        blob = self._blob
        if blob is None:
            blob = pickle.dumps(self._events, pickle.HIGHEST_PROTOCOL)
        return self.limit, self.dropped, len(self), blob

    def __setstate__(self, state) -> None:
        self.limit, self.dropped, self._count, self._blob = state
        self._events = None

    def on_event(self, t: int, kind: str, args: Tuple[Any, ...]) -> None:
        events = self._events
        if len(events) >= self.limit:
            if self.dropped == 0:
                log.warning(
                    "event log hit its %d-event cap; traces and "
                    "critical-path reports for this run are computed "
                    "from partial data", self.limit)
            self.dropped += 1
            return
        events.append((t, kind, args))

    def index(self) -> "LogIndex":
        """Read the log once, in emission order (see :class:`LogIndex`)."""
        blob = self._blob
        return LogIndex(self._events if blob is None else pickle.loads(blob))


#: the kinds an :class:`EventLog` records and its index reads
LOG_KINDS: FrozenSet[str] = frozenset({
    "op.begin", "op.end", "server.done", "combiner.close",
    "udn.send", "udn.deliver", "udn.recv", "udn.backpressure", "udn.timeout",
    "noc.link", "cache.stall", "cache.miss", "fence.stall", "atomic.stall",
    "atomic.cas_fail", "proc.kill", "proc.interrupt",
})

#: kind -> the named tuple an index keeps per event of it: ``seq`` (the
#: event's position in the log), ``t`` (its cycle), then its SCHEMA
#: fields.  A span's fields run from ``start`` to ``t``.
_RECORD = {kind: namedtuple(kind.replace(".", "_"), ("seq", "t") + SCHEMA[kind][1])
           for kind in sorted(LOG_KINDS)}


@dataclass(eq=False, slots=True)
class Op:
    """One operation's ``op.begin`` and ``op.end`` records, joined by op
    id (either may be missing from a log)."""

    begin: Optional[Any] = None
    end: Optional[Any] = None


@dataclass(eq=False, slots=True)
class Msg:
    """One UDN message's ``udn.send``, the ``noc.link`` records of the
    links it held and its ``udn.deliver`` (None in flight), joined by
    ``msg_id``, with the op current on its source core when it was sent."""

    send: Any
    op: Optional[Op]
    hops: List[Any] = field(default_factory=list)
    deliver: Optional[Any] = None


class LogIndex:
    """One reading of an event log, made in one pass in emission order.

    * ``records[kind]``: each event's record, per kind, in order: every
      core's spans (stalls, receive waits, backpressure, combining and
      service sessions) and instants -- sort by ``seq`` across kinds;
    * ``ops``: an :class:`Op` per operation, in first-event order;
    * ``messages``: a :class:`Msg` per UDN message sent, in send order;
    * ``services``: ``(server.done record, the client thread's op)``.
    """

    def __init__(self, events: List[Tuple[int, str, Tuple[Any, ...]]]):
        self.records: Dict[str, List[Any]] = {kind: [] for kind in _RECORD}
        self.ops: List[Op] = []
        self.messages: List[Msg] = []
        self.services: List[Tuple[Any, Optional[Op]]] = []
        # ops and messages by id until they end; each thread's and
        # each core's last op
        open_ops, open_msgs, op_of_tid, op_of_core = {}, {}, {}, {}
        records, record, new = self.records, _RECORD.get, tuple.__new__
        for seq, (t, kind, args) in enumerate(events):
            cls = record(kind)
            if cls is None:
                continue
            rec = new(cls, (seq, t, *args))
            records[kind].append(rec)
            if kind == "udn.send":
                msg = open_msgs[rec.msg_id] = Msg(rec, op_of_core.get(rec.core))
                self.messages.append(msg)
            elif kind == "noc.link":
                msg = open_msgs.get(rec.msg_id)
                if msg is not None:
                    msg.hops.append(rec)
            elif kind == "udn.deliver":
                msg = open_msgs.pop(rec.msg_id, None)
                if msg is not None:
                    msg.deliver = rec
            elif kind == "op.begin":
                op = open_ops[rec.op] = Op(rec)
                op_of_tid[rec.tid] = op_of_core[rec.core] = op
                self.ops.append(op)
            elif kind == "op.end":
                op = open_ops.pop(rec.op, None)
                if op is None:
                    op = Op()
                    self.ops.append(op)
                op.end = rec
            elif kind == "server.done":
                self.services.append((rec, op_of_tid.get(rec.client)))
