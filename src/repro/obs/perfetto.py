"""Chrome/Perfetto trace export of a machine's event log.

:func:`trace_events` converts the :class:`~repro.obs.bus.EventLog` a
traced run recorded into the Chrome Trace Event format (the JSON
flavour both ``chrome://tracing`` and https://ui.perfetto.dev open
directly).  The conversion runs once, at export, over the events in
emission order; the run itself only appends raw events to the log.

Track layout (one traced machine = one "process"):

* one thread track per core (``tid`` = core id) carrying coherence
  stalls, atomic round trips, receive waits, combining sessions and
  served requests;
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
from typing import Any, Dict, List, Optional, Sequence

from repro.obs.bus import named

__all__ = ["TRACE_KINDS", "counter_events", "trace_events",
           "write_chrome_trace"]

log = logging.getLogger(__name__)

#: the event kinds the export reads -- and so the kinds a machine's
#: event log records; every other kind is filtered at the bus
TRACE_KINDS = frozenset({
    "cache.stall", "fence.stall", "cache.miss",
    "atomic.stall", "atomic.cas_fail",
    "udn.send", "udn.backpressure", "udn.recv", "udn.deliver",
    "udn.timeout", "noc.link",
    "combiner.close", "server.req", "server.done",
    "op.begin", "op.end",
    "proc.kill", "proc.interrupt",
})


def trace_events(event_log, num_cores: int, pid: int) -> List[Dict[str, Any]]:
    """One machine's event log as Chrome trace-event dicts."""
    sim_track = num_cores
    udn_track = num_cores + 1
    link_tracks: Dict[str, int] = {}
    spans: List[Dict[str, Any]] = []
    #: flow-event bindings (``ph`` one of "s"/"t"/"f") link one op's
    #: spans across core tracks
    flows: List[Dict[str, Any]] = []
    #: per-thread current op id (from ``op.begin``), so service spans
    #: can join the issuing op's flow
    cur_op: Dict[int, int] = {}

    def add(ts: int, dur: Optional[int], tid: int, name: str, cat: str,
            args: Dict[str, Any]) -> None:
        ev: Dict[str, Any] = {"name": name, "cat": cat, "pid": pid,
                              "tid": tid, "ts": ts, "args": args}
        if dur is None:
            ev["ph"] = "i"
            ev["s"] = "t"
        else:
            ev["ph"] = "X"
            ev["dur"] = dur
        spans.append(ev)

    def add_flow(ts: int, tid: int, flow_id: int, phase: str) -> None:
        ev = {"name": "op-flow", "cat": "op", "pid": pid, "tid": tid,
              "ts": ts, "ph": phase, "id": flow_id}
        if phase == "f":
            ev["bp"] = "e"
        flows.append(ev)

    def link_track(a: int, b: int) -> int:
        key = f"{a}->{b}"
        tid = link_tracks.get(key)
        if tid is None:
            tid = link_tracks[key] = num_cores + 2 + len(link_tracks)
        return tid

    for t, kind, args in event_log.events:
        f = named(kind, args)
        if kind == "cache.stall":
            add(f["start"], f["cycles"], f["core"],
                "stall:" + f["why"], "cache", {"line": f["line"]})
        elif kind == "fence.stall":
            add(f["start"], f["cycles"], f["core"],
                "stall:" + f["why"], "cache", {})
        elif kind == "cache.miss":
            add(t, None, f["core"], f"miss:{f['op']}:{f['transition']}",
                "cache", {"line": f["line"], "latency": f["latency"]})
        elif kind == "atomic.stall":
            add(f["start"], f["cycles"], f["core"], "atomic", "atomic",
                {"line": f["line"]})
        elif kind == "atomic.cas_fail":
            add(t, None, f["core"], "cas-fail", "atomic", {"line": f["line"]})
        elif kind == "udn.send":
            add(t, None, f["core"], f"send->t{f['dst_tid']}", "udn",
                {"words": f["words"], "dst_core": f["dst_core"]})
        elif kind == "udn.backpressure":
            add(f["start"], f["cycles"], f["core"], "backpressure", "udn",
                {"dst_core": f["dst_core"]})
        elif kind == "udn.recv":
            add(f["start"], f["waited"], f["core"], "recv", "udn",
                {"words": f["words"], "tid": f["tid"]})
        elif kind == "udn.deliver":
            add(t, None, udn_track, f"deliver@c{f['core']}", "udn",
                {"words": f["words"], "latency": f["latency"]})
        elif kind == "udn.timeout":
            add(t, None, f["core"], f"timeout:{f['op']}", "fault",
                {"waited": f["waited"]})
        elif kind == "noc.link":
            add(t, f["busy"], link_track(f["a"], f["b"]),
                f"link {f['a']}->{f['b']}", "noc", {"wait": f["wait"]})
        elif kind == "combiner.close":
            add(f["start"], t - f["start"], f["core"], "combine", "combiner",
                {"ops": f["ops"], "prim": f["prim"]})
        elif kind == "server.req":
            add(t, None, f["core"], "req", "server",
                {"client": f["client"], "prim": f["prim"]})
        elif kind == "op.begin":
            cur_op[f["tid"]] = f["op"]
            add_flow(t, f["core"], f["op"], "s")
        elif kind == "op.end":
            add(f["start"], t - f["start"], f["core"], "op", "op",
                {"op": f["op"], "tid": f["tid"], "measured": f["measured"]})
            add_flow(t, f["core"], f["op"], "f")
        elif kind == "server.done":
            add(f["start"], t - f["start"], f["core"], "svc", "server",
                {"client": f["client"], "prim": f["prim"]})
            op = cur_op.get(f["client"])
            if op is not None:
                add_flow(f["start"], f["core"], op, "t")
        elif kind in ("proc.kill", "proc.interrupt"):
            add(t, None, sim_track, kind, "fault", {"name": f["name"]})

    names = {cid: f"core {cid}" for cid in range(num_cores)}
    names[sim_track] = "sim"
    names[udn_track] = "udn"
    for key, tid in link_tracks.items():
        names[tid] = f"link {key}"
    used = {ev["tid"] for ev in spans}
    out: List[Dict[str, Any]] = [
        {"name": "thread_name", "ph": "M", "pid": pid, "tid": tid,
         "args": {"name": name}}
        for tid, name in sorted(names.items()) if tid in used]
    # stable sorts: same-key events keep their emission order
    spans.sort(key=lambda ev: (ev["ts"], ev["tid"]))
    flows.sort(key=lambda ev: (ev["id"], ev["ts"]))
    out.extend(spans)
    out.extend(flows)
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
