"""Per-op causal tracing and critical-path blame attribution.

Reconstructs, from the raw event stream a machine's
:class:`~repro.obs.bus.EventLog` recorded, *where every cycle
of every operation's latency went*.  This is the lens Figures 3-5 of
the paper argue with -- coherence stalls vs. message latency vs.
combiner queueing -- applied per operation instead of machine-wide.

Model
-----
Every operation is the half-open interval ``[t0, t1)`` between its
``op.begin`` and ``op.end`` events on the issuing thread.  Within that
interval, recorded spans are *painted* onto a cycle-accurate timeline in
a fixed precedence order (later paints win), so the final timeline is a
partition of the interval and the per-category totals sum **exactly** to
the measured latency:

1. ``client``        -- base coat: the issuing thread computing/spinning
2. ``combining``     -- the issuing thread serving *others'* requests as
                        combiner while its own op is open
3. ``coherence``     -- cache / store-buffer stalls on the client core
4. ``atomic``        -- the client core's RMW round trips
5. ``backpressure``  -- the client blocked on a full destination buffer
6. ``queueing``      -- base coat of the response wait (request parked
                        in the server/combiner queue)
7. ``udn_transit``   -- the request flit in flight (send -> deliver,
                        matched by ``msg_id``)
8. ``service``       -- the request executing on the serving core
                        (``server.done`` span, matched by client tid)
9. ``service_stall`` -- cycles inside the service span the *serving*
                        core spent stalled (coherence/atomic/fence)
10. ``response``     -- wait cycles after the last service span ended:
                        the response travelling back and being popped

The whole-run critical path is the longest-duration chain of painted
segments through the happens-before DAG whose edges are (a) program
order inside an op, (b) program order between one thread's consecutive
ops, and (c) service serialization: consecutive service spans on the
same serving core.  Under saturation that chain runs through the
bottleneck resource, so its blame mix names the resource that bounds
throughput -- the same verdict as the Figure 4a counter breakdown, but
derived from causality instead of aggregate registers.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.obs.bus import named

__all__ = [
    "CATEGORIES",
    "CAUSAL_KINDS",
    "CritPathReport",
    "OpTrace",
    "analyze",
    "analyze_collector",
    "diff_reports",
    "stragglers",
]

#: the event kinds the happens-before reconstruction reads (a subset of
#: the kinds a machine's event log records)
CAUSAL_KINDS = frozenset({
    "op.begin", "op.end", "server.done", "combiner.close",
    "udn.send", "udn.deliver", "udn.recv", "udn.backpressure",
    "cache.stall", "atomic.stall", "fence.stall",
})

#: blame categories in paint order (index = paint precedence and the
#: code stored in the per-op timeline)
CATEGORIES: Tuple[str, ...] = (
    "client",
    "combining",
    "coherence",
    "atomic",
    "backpressure",
    "queueing",
    "udn_transit",
    "service",
    "service_stall",
    "response",
)

_CLIENT = 0
_COMBINING = 1
_COHERENCE = 2
_ATOMIC = 3
_BACKPRESSURE = 4
_QUEUEING = 5
_UDN_TRANSIT = 6
_SERVICE = 7
_SERVICE_STALL = 8
_RESPONSE = 9


@dataclass
class OpTrace:
    """One operation's reconstructed life, cycle-exactly attributed."""

    op: int                       #: run-unique op id
    tid: int                      #: issuing thread
    core: int                     #: issuing core
    t0: int                       #: issue cycle
    t1: int                       #: completion cycle
    measured: bool                #: completed inside the measurement window
    prim: str                     #: primitive label ("mp-server", ...)
    #: the painted timeline as (start, end, category) runs partitioning
    #: [t0, t1); durations sum exactly to :attr:`latency`
    segments: List[Tuple[int, int, str]] = field(default_factory=list)
    #: category -> cycles (sums exactly to :attr:`latency`)
    blame: Dict[str, int] = field(default_factory=dict)

    @property
    def latency(self) -> int:
        return self.t1 - self.t0

    @property
    def dominant(self) -> str:
        """The category carrying the most cycles of this op's latency."""
        if not self.blame:
            return "client"
        return max(self.blame.items(), key=lambda kv: kv[1])[0]


@dataclass
class CritPathReport:
    """Everything the renderers need from one analyzed run."""

    label: str
    ops: List[OpTrace]                      #: every completed op, issue order
    blame: Dict[str, int]                   #: totals over *measured* ops
    path: List[Tuple[int, int, int, str]]   #: whole-run critical path:
                                            #: (op, start, end, category)
    path_blame: Dict[str, int]              #: category totals along the path
    incomplete_ops: int = 0                 #: op.begin without op.end (crashes)
    truncated: bool = False                 #: collector hit its event cap

    @property
    def measured_ops(self) -> List[OpTrace]:
        return [o for o in self.ops if o.measured]

    @property
    def dominant(self) -> str:
        """Dominant blame category across all measured ops."""
        if not self.blame:
            return "client"
        return max(self.blame.items(), key=lambda kv: kv[1])[0]

    @property
    def path_dominant(self) -> str:
        """Dominant category along the whole-run critical path."""
        if not self.path_blame:
            return "client"
        return max(self.path_blame.items(), key=lambda kv: kv[1])[0]

    @property
    def path_cycles(self) -> int:
        return sum(self.path_blame.values())


# -- interval indexing ------------------------------------------------------

class _Spans:
    """Sorted (start, end) spans with fast clipped-overlap queries."""

    def __init__(self) -> None:
        self._raw: List[Tuple[int, int]] = []
        self._starts: List[int] = []

    def add(self, start: int, end: int) -> None:
        if end > start:
            self._raw.append((start, end))

    def freeze(self) -> None:
        self._raw.sort()
        self._starts = [s for s, _ in self._raw]

    def overlapping(self, lo: int, hi: int) -> Iterable[Tuple[int, int]]:
        """Spans intersecting [lo, hi), clipped to it.

        Spans from one core's event stream never nest (a core stalls,
        waits, or serves one thing at a time), so scanning back from the
        first start >= hi until spans end before lo stays O(answer).
        """
        i = bisect_left(self._starts, hi) - 1
        out = []
        while i >= 0:
            s, e = self._raw[i]
            if e <= lo:
                if s <= lo:
                    break
                i -= 1
                continue
            out.append((max(s, lo), min(e, hi)))
            i -= 1
        out.reverse()
        return out


def _paint(buf: np.ndarray, base: int, start: int, end: int, code: int) -> None:
    s = max(start - base, 0)
    e = min(end - base, len(buf))
    if e > s:
        buf[s:e] = code


# -- analysis ---------------------------------------------------------------

def analyze(events: Sequence[Tuple[int, str, Tuple[Any, ...]]],
            label: str = "run", truncated: bool = False) -> CritPathReport:
    """Reconstruct per-op blame and the whole-run critical path.

    ``events`` is the raw ``(cycle, kind, args)`` stream of one
    machine (what its :class:`~repro.obs.bus.EventLog` holds), in
    emission order; kinds outside :data:`CAUSAL_KINDS` are ignored.
    """
    # ---- index the stream by the keys the per-op joins need ----
    op_begin: Dict[int, Tuple[int, int, int, str]] = {}  # op -> (t, core, tid, prim)
    op_ends: List[Tuple[int, Dict[str, Any]]] = []
    stall_by_core: Dict[int, _Spans] = {}       # coherence + fence
    atomic_by_core: Dict[int, _Spans] = {}
    bp_by_core: Dict[int, _Spans] = {}
    recv_by_tid: Dict[int, _Spans] = {}
    comb_by_tid: Dict[int, _Spans] = {}
    svc_by_client: Dict[int, List[Tuple[int, int, int]]] = {}  # (start, end, core)
    sends_by_core: Dict[int, List[Tuple[int, int]]] = {}       # (t, msg_id)
    deliver_at: Dict[int, int] = {}                            # msg_id -> t

    def spans(d: Dict[int, _Spans], key: int) -> _Spans:
        sp = d.get(key)
        if sp is None:
            sp = d[key] = _Spans()
        return sp

    for t, kind, args in events:
        if kind not in CAUSAL_KINDS:
            continue
        f = named(kind, args)
        if kind == "op.begin":
            op_begin[f["op"]] = (t, f["core"], f["tid"], f["prim"])
        elif kind == "op.end":
            op_ends.append((t, f))
        elif kind == "server.done":
            client = f["client"]
            if client is not None:
                svc_by_client.setdefault(client, []).append(
                    (f["start"], t, f["core"]))
        elif kind in ("cache.stall", "fence.stall"):
            spans(stall_by_core, f["core"]).add(t - f["cycles"], t)
        elif kind == "atomic.stall":
            spans(atomic_by_core, f["core"]).add(t - f["cycles"], t)
        elif kind == "udn.backpressure":
            spans(bp_by_core, f["core"]).add(f["start"], t)
        elif kind == "udn.recv":
            spans(recv_by_tid, f["tid"]).add(f["start"], f["start"] + f["waited"])
        elif kind == "combiner.close":
            spans(comb_by_tid, f["tid"]).add(f["start"], t)
        elif kind == "udn.send":
            sends_by_core.setdefault(f["core"], []).append((t, f["msg_id"]))
        elif kind == "udn.deliver":
            deliver_at[f["msg_id"]] = t

    for d in (stall_by_core, atomic_by_core, bp_by_core, recv_by_tid,
              comb_by_tid):
        for sp in d.values():
            sp.freeze()
    for lst in svc_by_client.values():
        lst.sort()
    for lst in sends_by_core.values():
        lst.sort()

    # ---- paint every completed op ----
    ops: List[OpTrace] = []
    blame_total: Dict[str, int] = {}
    for t1, f in op_ends:
        t0 = f["start"]
        if t1 <= t0:
            continue
        tid, core, op_id = f["tid"], f["core"], f["op"]
        prim = op_begin.get(op_id, (0, 0, 0, "?"))[3]
        buf = np.zeros(t1 - t0, dtype=np.int8)  # base coat: client

        sp = comb_by_tid.get(tid)
        if sp is not None:
            for s, e in sp.overlapping(t0, t1):
                _paint(buf, t0, s, e, _COMBINING)
        sp = stall_by_core.get(core)
        if sp is not None:
            for s, e in sp.overlapping(t0, t1):
                _paint(buf, t0, s, e, _COHERENCE)
        sp = atomic_by_core.get(core)
        if sp is not None:
            for s, e in sp.overlapping(t0, t1):
                _paint(buf, t0, s, e, _ATOMIC)
        sp = bp_by_core.get(core)
        if sp is not None:
            for s, e in sp.overlapping(t0, t1):
                _paint(buf, t0, s, e, _BACKPRESSURE)
        sp = recv_by_tid.get(tid)
        if sp is not None:
            for s, e in sp.overlapping(t0, t1):
                _paint(buf, t0, s, e, _QUEUEING)
        # request flits in flight (send -> deliver, matched by msg_id)
        sends = sends_by_core.get(core)
        if sends:
            lo = bisect_left(sends, (t0, -1))
            hi = bisect_right(sends, (t1, 1 << 62))
            for ts, msg in sends[lo:hi]:
                td = deliver_at.get(msg)
                if td is not None:
                    _paint(buf, t0, ts, td, _UDN_TRANSIT)
        # service spans executed for this client, plus the serving
        # core's own stalls inside them
        last_svc_end: Optional[int] = None
        for s, e, svc_core in svc_by_client.get(tid, ()):
            if s >= t1 or e <= t0 or s < t0:
                continue
            _paint(buf, t0, s, e, _SERVICE)
            ssp = stall_by_core.get(svc_core)
            if ssp is not None:
                for ss, se in ssp.overlapping(s, min(e, t1)):
                    _paint(buf, t0, ss, se, _SERVICE_STALL)
            ssp = atomic_by_core.get(svc_core)
            if ssp is not None:
                for ss, se in ssp.overlapping(s, min(e, t1)):
                    _paint(buf, t0, ss, se, _SERVICE_STALL)
            if last_svc_end is None or e > last_svc_end:
                last_svc_end = e
        # wait cycles after the service ended: the response coming back
        if last_svc_end is not None and last_svc_end < t1:
            tail = buf[max(last_svc_end - t0, 0):]
            tail[tail == _QUEUEING] = _RESPONSE

        # compress the timeline into runs + per-category totals
        counts = np.bincount(buf, minlength=len(CATEGORIES))
        blame = {CATEGORIES[i]: int(c) for i, c in enumerate(counts) if c}
        edges = np.flatnonzero(np.diff(buf)) + 1
        bounds = np.concatenate(([0], edges, [len(buf)]))
        segments = [
            (t0 + int(bounds[i]), t0 + int(bounds[i + 1]),
             CATEGORIES[int(buf[bounds[i]])])
            for i in range(len(bounds) - 1)
        ]
        trace = OpTrace(op=op_id, tid=tid, core=core, t0=t0, t1=t1,
                        measured=bool(f["measured"]), prim=prim,
                        segments=segments, blame=blame)
        ops.append(trace)
        if trace.measured:
            for cat, v in blame.items():
                blame_total[cat] = blame_total.get(cat, 0) + v

    ops.sort(key=lambda o: (o.t0, o.op))
    path, path_blame = _critical_path(ops)
    return CritPathReport(
        label=label, ops=ops, blame=blame_total, path=path,
        path_blame=path_blame,
        incomplete_ops=len(op_begin) - len(ops),
        truncated=truncated,
    )


def analyze_collector(event_log, label: str = "run") -> CritPathReport:
    """Analyze one machine's :class:`~repro.obs.bus.EventLog`."""
    return analyze(event_log.events, label=label,
                   truncated=event_log.truncated)


# -- whole-run critical path ------------------------------------------------

def _critical_path(ops: List[OpTrace]) -> Tuple[List[Tuple[int, int, int, str]],
                                                Dict[str, int]]:
    """Longest-duration chain of segments through the happens-before DAG.

    Edges: consecutive segments of one op (program order), the last
    segment of thread T's op k -> first segment of its op k+1 (program
    order across the think phase), and consecutive service segments on
    one serving core (service serialization).  All edges point forward
    in time, so one pass over segments sorted by end cycle is a valid
    topological order for the longest-path DP.
    """
    # nodes: (op_index, seg_index); flatten with global ids
    segs: List[Tuple[int, int, int, int, str]] = []  # (start, end, op_idx, seg_idx, cat)
    for oi, op in enumerate(ops):
        for si, (s, e, cat) in enumerate(op.segments):
            if e > s:
                segs.append((s, e, oi, si, cat))
    if not segs:
        return [], {}

    node_of: Dict[Tuple[int, int], int] = {}
    for idx, (_s, _e, oi, si, _c) in enumerate(segs):
        node_of[(oi, si)] = idx

    preds: List[List[int]] = [[] for _ in segs]

    # (a) program order inside an op
    for oi, op in enumerate(ops):
        prev = None
        for si, (s, e, _cat) in enumerate(op.segments):
            if e <= s:
                continue
            cur = node_of[(oi, si)]
            if prev is not None:
                preds[cur].append(prev)
            prev = cur

    # (b) program order between one thread's consecutive ops
    last_of_tid: Dict[int, int] = {}
    for oi, op in enumerate(ops):  # ops already sorted by t0
        first = next((node_of[(oi, si)] for si, (s, e, _c)
                      in enumerate(op.segments) if e > s), None)
        last = next((node_of[(oi, si)] for si in
                     range(len(op.segments) - 1, -1, -1)
                     if op.segments[si][1] > op.segments[si][0]), None)
        if first is None:
            continue
        prev = last_of_tid.get(op.tid)
        if prev is not None and segs[prev][1] <= segs[first][0]:
            preds[first].append(prev)
        last_of_tid[op.tid] = last

    # (c) service serialization: consecutive service segments per core.
    # An op's service runs on the serving core; chain them in time order
    # so the path can ride the bottleneck core across ops.
    svc_nodes: Dict[Any, List[int]] = {}
    for idx, (_s, _e, oi, _si, cat) in enumerate(segs):
        if cat in ("service", "service_stall"):
            svc_nodes.setdefault(ops[oi].prim, []).append(idx)
    for nodes in svc_nodes.values():
        nodes.sort(key=lambda i: (segs[i][0], segs[i][1]))
        for a, b in zip(nodes, nodes[1:]):
            if segs[a][1] <= segs[b][0]:
                preds[b].append(a)

    # longest-duration DP over segments in end-cycle order
    order = sorted(range(len(segs)), key=lambda i: (segs[i][1], segs[i][0]))
    dp = [0] * len(segs)
    back: List[Optional[int]] = [None] * len(segs)
    for i in order:
        dur = segs[i][1] - segs[i][0]
        best, who = 0, None
        for p in preds[i]:
            if dp[p] > best:
                best, who = dp[p], p
        dp[i] = best + dur
        back[i] = who

    end = max(range(len(segs)), key=lambda i: dp[i])
    chain: List[int] = []
    cur: Optional[int] = end
    while cur is not None:
        chain.append(cur)
        cur = back[cur]
    chain.reverse()

    path = [(ops[segs[i][2]].op, segs[i][0], segs[i][1], segs[i][4])
            for i in chain]
    path_blame: Dict[str, int] = {}
    for _op, s, e, cat in path:
        path_blame[cat] = path_blame.get(cat, 0) + (e - s)
    return path, path_blame


# -- derived reports --------------------------------------------------------

def stragglers(report: CritPathReport, k: int = 10) -> List[OpTrace]:
    """The ``k`` slowest measured ops, slowest first (``k`` >= 1)."""
    if k < 1:
        raise ValueError(f"straggler count must be >= 1, got {k}")
    return sorted(report.measured_ops, key=lambda o: -o.latency)[:k]


def diff_reports(a: CritPathReport, b: CritPathReport) -> Dict[str, Dict[str, float]]:
    """Per-category mean blame (cycles/op) of two runs, plus the delta.

    The A/B lens: for each category, how many cycles per measured op
    each run spends there, and ``b - a``.  Categories absent from both
    are omitted.
    """
    na = max(len(a.measured_ops), 1)
    nb = max(len(b.measured_ops), 1)
    out: Dict[str, Dict[str, float]] = {}
    for cat in CATEGORIES:
        va = a.blame.get(cat, 0) / na
        vb = b.blame.get(cat, 0) / nb
        if va or vb:
            out[cat] = {"a": va, "b": vb, "delta": vb - va}
    return out
