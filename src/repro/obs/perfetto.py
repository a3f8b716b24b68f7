"""Chrome/Perfetto trace export of a machine's event log.

:func:`trace_events` converts the :class:`~repro.obs.bus.EventLog` a
traced run recorded into the Chrome Trace Event format (the JSON
flavour both ``chrome://tracing`` and https://ui.perfetto.dev open
directly).  The conversion runs once, at export, over the log's
:class:`~repro.obs.bus.LogIndex`; the run itself only appends raw
events to the log.

Track layout (one traced machine = one "process"):

* one thread track per core (``tid`` = core id) carrying coherence
  stalls, atomic round trips, receive waits, combining sessions and
  service spans;
* a ``udn`` track for message deliveries;
* one track per *used* mesh link (allocated in first-use order)
  carrying link occupancy spans;
* a ``sim`` track for process lifecycle / fault events.

Timestamps are simulated cycles written into the ``ts``/``dur``
microsecond fields -- the absolute unit is meaningless for a simulator,
the relative scale is what matters.  Events are sorted by timestamp at
export, so the file always satisfies the monotonicity the viewers
expect.  A log that hit its cap exports as a trace marked truncated.
"""

from __future__ import annotations

import json
import logging
from typing import Any, Dict, List, Optional, Sequence, Tuple

__all__ = ["counter_events", "trace_events", "write_chrome_trace"]

log = logging.getLogger(__name__)


def trace_events(event_log, num_cores: int, pid: int) -> List[Dict[str, Any]]:
    """One machine's event log as Chrome trace-event dicts."""
    ix = event_log.index()
    rec = ix.records
    sim_track = num_cores
    udn_track = num_cores + 1
    link_tracks: Dict[str, int] = {}  # allocated in first-use order
    #: (ts, tid, seq, event), sorted: equal (ts, tid) keep emission order
    spans: List[Tuple[int, int, int, Dict[str, Any]]] = []
    #: flow-event bindings (``ph`` one of "s"/"t"/"f") link one op's
    #: spans across core tracks; (id, ts, seq, event), sorted likewise
    flows: List[Tuple[int, int, int, Dict[str, Any]]] = []

    def add(r, ts: int, dur: Optional[int], tid: int, name: str, cat: str,
            args: Dict[str, Any]) -> None:
        ev: Dict[str, Any] = {"name": name, "cat": cat, "pid": pid,
                              "tid": tid, "ts": ts, "args": args}
        if dur is None:
            ev["ph"] = "i"
            ev["s"] = "t"
        else:
            ev["ph"] = "X"
            ev["dur"] = dur
        spans.append((ts, tid, r.seq, ev))

    def add_flow(r, ts: int, tid: int, flow_id: int, phase: str) -> None:
        ev = {"name": "op-flow", "cat": "op", "pid": pid, "tid": tid,
              "ts": ts, "ph": phase, "id": flow_id}
        if phase == "f":
            ev["bp"] = "e"
        flows.append((flow_id, ts, r.seq, ev))

    for r in rec["cache.stall"]:
        add(r, r.start, r.cycles, r.core, "stall:" + r.why, "cache",
            {"line": r.line})
    for r in rec["fence.stall"]:
        add(r, r.start, r.cycles, r.core, "stall:" + r.why, "cache", {})
    for r in rec["cache.miss"]:
        add(r, r.t, None, r.core, f"miss:{r.op}:{r.transition}", "cache",
            {"line": r.line, "latency": r.latency})
    for r in rec["atomic.stall"]:
        add(r, r.start, r.cycles, r.core, "atomic", "atomic", {"line": r.line})
    for r in rec["atomic.cas_fail"]:
        add(r, r.t, None, r.core, "cas-fail", "atomic", {"line": r.line})
    for r in rec["udn.send"]:
        add(r, r.t, None, r.core, f"send->t{r.dst_tid}", "udn",
            {"words": r.words, "dst_core": r.dst_core})
    for r in rec["udn.backpressure"]:
        add(r, r.start, r.cycles, r.core, "backpressure", "udn",
            {"dst_core": r.dst_core})
    for r in rec["udn.recv"]:
        add(r, r.start, r.waited, r.core, "recv", "udn",
            {"words": r.words, "tid": r.tid})
    for r in rec["udn.deliver"]:
        add(r, r.t, None, udn_track, f"deliver@c{r.core}", "udn",
            {"words": r.words, "latency": r.latency})
    for r in rec["udn.timeout"]:
        add(r, r.t, None, r.core, f"timeout:{r.op}", "fault",
            {"waited": r.waited})
    for r in rec["noc.link"]:
        key = f"{r.a}->{r.b}"
        tid = link_tracks.setdefault(key, num_cores + 2 + len(link_tracks))
        add(r, r.t, r.busy, tid, f"link {key}", "noc", {"wait": r.wait})
    for r in rec["combiner.close"]:
        add(r, r.start, r.t - r.start, r.core, "combine", "combiner",
            {"ops": r.ops, "prim": r.prim})
    for r in rec["op.begin"]:
        add_flow(r, r.t, r.core, r.op, "s")
    for r in rec["op.end"]:
        add(r, r.start, r.t - r.start, r.core, "op", "op",
            {"op": r.op, "tid": r.tid, "measured": r.measured})
        add_flow(r, r.t, r.core, r.op, "f")
    for r, op in ix.services:
        add(r, r.start, r.t - r.start, r.core, "svc", "server",
            {"client": r.client, "prim": r.prim})
        if op is not None:
            add_flow(r, r.start, r.core, op.begin.op, "t")
    for kind in ("proc.kill", "proc.interrupt"):
        for r in rec[kind]:
            add(r, r.t, None, sim_track, kind, "fault", {"name": r.name})
    del ix, rec  # the index is spent: let it go before the sort

    names = {cid: f"core {cid}" for cid in range(num_cores)}
    names[sim_track] = "sim"
    names[udn_track] = "udn"
    for key, tid in link_tracks.items():
        names[tid] = f"link {key}"
    used = {tid for _ts, tid, _seq, _ev in spans}
    out: List[Dict[str, Any]] = [
        {"name": "thread_name", "ph": "M", "pid": pid, "tid": tid,
         "args": {"name": name}}
        for tid, name in sorted(names.items()) if tid in used]
    spans.sort()
    flows.sort()
    out.extend(ev for _ts, _tid, _seq, ev in spans)
    out.extend(ev for _id, _ts, _seq, ev in flows)
    return out


def counter_events(pid: int, series: Dict[str, Any]) -> List[Dict[str, Any]]:
    """Sampled ring series as Chrome counter-track events (``ph: C``).

    Perfetto renders one counter track per (pid, series name); each
    bucket of the ring becomes one sample at the bucket's start cycle.
    The trace viewer thus reads exactly the data the HTML dashboard
    charts -- same rings, same downsampling.
    """
    out: List[Dict[str, Any]] = []
    for name in sorted(series):
        ts = series[name]
        label = f"{name} ({ts.unit})" if ts.unit else name
        for t, v in ts.points():
            out.append({"name": label, "cat": "telemetry", "ph": "C",
                        "pid": pid, "tid": 0, "ts": t,
                        "args": {"value": v}})
    return out


def write_chrome_trace(records: Sequence[Any], path: str) -> int:
    """Write observed machines' records as one Chrome trace JSON file.

    Each :class:`~repro.obs.ObsRecord` with an event log or sampled
    series becomes one "process", named by its label, so several
    benchmark runs can be compared side by side in Perfetto; its
    series ride along as counter tracks.  Returns the number of trace
    events written.
    """
    shown = [rec for rec in records
             if rec.trace is not None or rec.timeseries is not None]
    dropped = sum(rec.trace.dropped for rec in shown if rec.trace is not None)
    other: Dict[str, Any] = {"unit": "simulated cycles"}
    if dropped:
        log.warning("trace %s is truncated: %d events were dropped at the "
                    "event-log cap", path, dropped)
        other["truncated"] = True
        other["dropped_events"] = dropped

    def batches():
        # one machine's events at a time: the whole document's dicts
        # never sit in memory together
        for pid, rec in enumerate(shown):
            yield [{"name": "process_name", "ph": "M", "pid": pid,
                    "args": {"name": rec.label}}]
            if rec.trace is not None:
                yield trace_events(rec.trace, rec.cores, pid)
        for pid, rec in enumerate(shown):
            if rec.timeseries is not None:
                yield counter_events(pid, rec.timeseries["series"])

    # the bytes ``json.dump`` of the whole document would write, one
    # event's string at a time beside the batch
    written = 0
    with open(path, "w") as fh:
        fh.write('{"traceEvents": [')
        for batch in batches():
            for ev in batch:
                if written:
                    fh.write(", ")
                fh.write(json.dumps(ev))
                written += 1
        fh.write('], "displayTimeUnit": "ns", "otherData": ')
        json.dump(other, fh)
        fh.write("}")
    return written
