# Reference copy of the perf counter file as it was when the bus fed it:
# every register rebuilt from EventBus events through the ``_on_*``
# handlers below.  Used only as the oracle of
# tests/test_counters_oracle.py, which subscribes it beside the live
# repro.obs.PerfCounters (written directly by the hardware models) and
# requires identical snapshot(), delta() and counters_csv() output.
# Kept verbatim below this comment; do not "fix" it to match.
"""Hardware performance counters derived from the observability bus.

:class:`PerfCounters` is the "perf counter file" of the simulated chip:
a set of monotonically increasing registers maintained from
:class:`~repro.obs.bus.EventBus` events plus the cores' own cycle
registers.  Like real PMUs it is queried with before/after snapshots::

    before = machine.obs.counters.snapshot()
    ...  # run a measurement window
    delta = machine.obs.counters.delta(before)
    delta["core"][3]["miss.load.M->S"]   # misses by coherence transition
    delta["line"][17]["stall_cycles"]    # per-cache-line contention
    delta["link"]["4->5"]["flit_cycles"] # mesh link occupancy
    delta["udn_hist"][6]                 # deliveries with latency in [32,64)

Register groups
---------------
``core``      per-core: misses by transition (``miss.load.M->S``,
              ``miss.store.inv``, ...), ``invalidations_received``,
              ``cas_failures``, event-derived stall cycles
              (``stall_mem`` / ``stall_atomic`` / ``stall_fence``), UDN
              words/messages sent and received, backpressure cycles.
``line``      per-cache-line: ``misses``, ``invalidations``,
              ``stall_cycles``, ``atomics``, ``cas_failures`` -- the raw
              material of the contention heatmap.
``link``      per directed mesh link (``"a->b"`` keys): ``flit_cycles``
              (occupancy) and ``wait_cycles`` (queueing).
``udn_hist``  histogram of message delivery latencies; bucket ``k``
              counts deliveries with latency in ``[2^(k-1), 2^k)``
              cycles (bucket 0 is latency 0).
``global``    chip-wide: combining sessions/ops, process lifecycle
              counts, timeouts, retries.
``hw``        the per-core cycle registers (``busy``, ``stall_*``,
              ``wait``, ``rmr``, op counts) read straight from
              :class:`~repro.machine.core.Core` -- the registers the
              paper's own Figure 4a methodology reads.
``source``    externally registered scalar sources
              (:meth:`PerfCounters.register_source`).

Every register group is **baselined at enable time**: the ``hw``
registers subtract the core snapshots taken when this PerfCounters was
constructed, and a ``source`` registered mid-run subtracts its value at
registration.  Without that, observability enabled after warm-up (or a
source registered after the first snapshot) would fold pre-enable
totals into the first window's delta -- a garbage baseline.

The event-derived ``stall_*`` registers in ``core`` must always equal
the ``hw`` stall registers: both are incremented at the same sites with
the same values, and a test holds them together (the guard against
double-counting when the accounting is refactored).
"""

from __future__ import annotations

from collections import defaultdict
from typing import Any, Callable, Dict, Tuple

import numpy as np

from repro.obs.bus import named

__all__ = ["PerfCounters", "counters_csv", "merge_counters", "latency_bucket"]

# Fixed register slots for the UDN event handlers -- the four
# highest-frequency bus events under the Figure 3 workloads (every
# message send/deliver/receive fires one).  These registers live in a
# (cores x slots) int64 array instead of the nested str-keyed dicts the
# cold handlers use: a fixed-slot write with no string hashing, and a
# layout the compiled engine core's hook can feed without boxing.
# snapshot() folds them back into the plain-dict register shape, so the
# query surface is unchanged.
(_U_MSGS_SENT, _U_WORDS_SENT, _U_MSGS_RECV, _U_WORDS_RECV,
 _U_WAIT, _U_BP_CYCLES, _U_BP_EVENTS) = range(7)
_U_SLOTS = 7

#: udn_hist buckets; bucket k is latency bit_length (64-bit cycle
#: counts fit with room to spare)
_U_HIST = 80


def latency_bucket(latency: int) -> int:
    """Histogram bucket for a latency: 0, then ``[2^(k-1), 2^k)`` -> k."""
    if latency <= 0:
        return 0
    return max(1, latency.bit_length())


def _nested() -> Dict[Any, Dict[str, int]]:
    return defaultdict(lambda: defaultdict(int))


def merge_counters(into: Dict[str, Any], frm: Dict[str, Any]) -> Dict[str, Any]:
    """Accumulate one snapshot/delta dict into another (for aggregation)."""
    for group in ("core", "line", "link", "hw"):
        dst = into.setdefault(group, {})
        for key, regs in frm.get(group, {}).items():
            d = dst.setdefault(key, {})
            for name, v in regs.items():
                d[name] = d.get(name, 0) + v
    for group in ("udn_hist", "global", "source"):
        dst = into.setdefault(group, {})
        for key, v in frm.get(group, {}).items():
            dst[key] = dst.get(key, 0) + v
    return into


class PerfCounters:
    """Monotonic counter registers fed by bus events (see module docs)."""

    def __init__(self, machine):
        self.machine = machine
        self.core = _nested()       # cid -> register -> value
        self.line = _nested()       # line no -> register -> value
        self.link = _nested()       # "a->b" -> register -> value
        self.global_: Dict[str, int] = defaultdict(int)
        # hot UDN registers: numpy-backed, folded into the dict shape at
        # snapshot time (see the slot constants at module top)
        ncores = 1 + max((c.cid for c in machine.cores), default=-1)
        self._udn_core = np.zeros((ncores, _U_SLOTS), dtype=np.int64)
        self._udn_hist = np.zeros(_U_HIST, dtype=np.int64)
        # hw registers are reported relative to enable time: without the
        # baseline, enabling observability mid-run would make the first
        # delta() include every pre-enable cycle
        self._hw_base = {c.cid: c.snapshot() for c in machine.cores}
        self._sources: Dict[str, Callable[[], float]] = {}
        self._source_base: Dict[str, float] = {}

    def register_source(self, name: str, fn: Callable[[], float]) -> None:
        """Expose external scalar ``fn()`` as register ``source/<name>``.

        Baselined at registration: the register reads 0 now and tracks
        increments from here on, so sources registered after a first
        :meth:`snapshot` still produce correct :meth:`delta` values.
        """
        if name in self._sources:
            raise ValueError(f"source {name!r} already registered")
        self._sources[name] = fn
        self._source_base[name] = fn()

    # -- event ingestion ----------------------------------------------------
    def on_event(self, t: int, kind: str, args: Tuple[Any, ...]) -> None:
        f = named(kind, args)
        handler = _HANDLERS.get(kind)
        if handler is not None:
            handler(self, t, f)

    def _on_cache_miss(self, t, f):
        c = self.core[f["core"]]
        c["miss." + f["op"] + "." + f["transition"]] += 1
        c["misses"] += 1
        ln = self.line[f["line"]]
        ln["misses"] += 1
        ln["miss_latency_cycles"] += f["latency"]

    def _on_cache_stall(self, t, f):
        self.core[f["core"]]["stall_mem"] += f["cycles"]
        line = f.get("line")
        if line is not None:
            self.line[line]["stall_cycles"] += f["cycles"]

    def _on_cache_inval(self, t, f):
        self.core[f["core"]]["invalidations_received"] += 1
        self.line[f["line"]]["invalidations"] += 1

    def _on_fence_stall(self, t, f):
        self.core[f["core"]]["stall_fence"] += f["cycles"]

    def _on_atomic_exec(self, t, f):
        c = self.core[f["core"]]
        c["atomics"] += 1
        if f.get("cold"):
            c["atomics_cold"] += 1
        ln = self.line[f["line"]]
        ln["atomics"] += 1
        self.global_["atomic_service_cycles"] += f.get("service", 0)

    def _on_atomic_stall(self, t, f):
        self.core[f["core"]]["stall_atomic"] += f["cycles"]
        self.line[f["line"]]["stall_cycles"] += f["cycles"]

    def _on_cas_fail(self, t, f):
        self.core[f["core"]]["cas_failures"] += 1
        self.line[f["line"]]["cas_failures"] += 1

    def _on_udn_send(self, t, f):
        row = self._udn_core[f["core"]]
        row[_U_MSGS_SENT] += 1
        row[_U_WORDS_SENT] += f["words"]

    def _on_udn_backpressure(self, t, f):
        row = self._udn_core[f["core"]]
        row[_U_BP_CYCLES] += f["cycles"]
        row[_U_BP_EVENTS] += 1

    def _on_udn_deliver(self, t, f):
        self._udn_hist[latency_bucket(f["latency"])] += 1

    def _on_udn_recv(self, t, f):
        row = self._udn_core[f["core"]]
        row[_U_MSGS_RECV] += 1
        row[_U_WORDS_RECV] += f["words"]
        row[_U_WAIT] += f["waited"]

    @property
    def udn_hist(self) -> Dict[int, int]:
        """Delivery-latency histogram as a plain dict (buckets hit)."""
        return {k: int(v) for k, v in enumerate(self._udn_hist) if v}

    def _on_udn_timeout(self, t, f):
        self.global_["udn_timeouts"] += 1

    def _on_noc_link(self, t, f):
        lk = self.link[f"{f['a']}->{f['b']}"]
        lk["flit_cycles"] += f["busy"]
        lk["wait_cycles"] += f["wait"]
        lk["packets"] += 1

    def _on_noc_packet(self, t, f):
        self.global_["noc_packets"] += 1
        self.global_["noc_packet_cycles"] += f["cycles"]

    def _on_combiner_close(self, t, f):
        self.global_["combining_sessions"] += 1
        self.global_["combined_ops"] += f["ops"]

    def _on_server_req(self, t, f):
        self.core[f["core"]]["requests_served"] += 1
        self.global_["requests_served"] += 1

    def _on_server_done(self, t, f):
        self.core[f["core"]]["service_cycles"] += t - f["start"]
        self.global_["ops_serviced"] += 1

    def _on_proc(self, t, f, key):
        self.global_[key] += 1

    def _on_fault(self, t, f, key):
        self.global_[key] += 1

    # -- snapshots ----------------------------------------------------------
    def snapshot(self) -> Dict[str, Any]:
        """Plain-dict copy of every register, including the core hw ones."""
        base = self._hw_base
        core = {cid: dict(regs) for cid, regs in self.core.items()}
        # fold the numpy-backed UDN registers into the dict shape; a
        # register is present iff its triggering event ever fired for
        # that core (matching the old key-on-first-increment semantics)
        for cid, row in enumerate(self._udn_core.tolist()):
            if not any(row):
                continue
            regs = core.setdefault(cid, {})
            if row[_U_MSGS_SENT]:
                regs["udn_msgs_sent"] = row[_U_MSGS_SENT]
                regs["udn_words_sent"] = row[_U_WORDS_SENT]
            if row[_U_BP_EVENTS]:
                regs["backpressure_cycles"] = row[_U_BP_CYCLES]
            if row[_U_MSGS_RECV]:
                regs["udn_msgs_received"] = row[_U_MSGS_RECV]
                regs["udn_words_received"] = row[_U_WORDS_RECV]
                regs["udn_wait_cycles"] = row[_U_WAIT]
        glob = dict(self.global_)
        deliveries = int(self._udn_hist.sum())
        if deliveries:
            glob["udn_deliveries"] = deliveries
        bp_events = int(self._udn_core[:, _U_BP_EVENTS].sum())
        if bp_events:
            glob["backpressure_events"] = bp_events
        return {
            "core": core,
            "line": {ln: dict(regs) for ln, regs in self.line.items()},
            "link": {lk: dict(regs) for lk, regs in self.link.items()},
            "udn_hist": self.udn_hist,
            "global": glob,
            "hw": {
                c.cid: {
                    name: v - base[c.cid][name]
                    for name, v in c.snapshot().items()
                }
                for c in self.machine.cores
            },
            "source": {
                name: fn() - self._source_base[name]
                for name, fn in self._sources.items()
            },
        }

    def delta(self, since: Dict[str, Any]) -> Dict[str, Any]:
        """Register increments since a :meth:`snapshot` (same shape)."""
        now = self.snapshot()
        out: Dict[str, Any] = {}
        for group in ("core", "line", "link", "hw"):
            g: Dict[Any, Dict[str, int]] = {}
            base = since.get(group, {})
            for key, regs in now[group].items():
                b = base.get(key, {})
                d = {name: v - b.get(name, 0) for name, v in regs.items()}
                d = {name: v for name, v in d.items() if v}
                if d:
                    g[key] = d
            out[group] = g
        for group in ("udn_hist", "global", "source"):
            base = since.get(group, {})
            out[group] = {
                k: v - base.get(k, 0)
                for k, v in now[group].items()
                if v - base.get(k, 0)
            }
        return out

    # -- derived views ------------------------------------------------------
    def service_breakdown(self, core_ids, since: Dict[str, Any]) -> Dict[str, float]:
        """Event-derived stall and hw busy cycles over a window.

        Returns ``{"busy": ..., "stall": ...}`` summed over ``core_ids``
        -- the raw material of Figure 4a, reconstructed from the perf
        counter file instead of the driver's ad-hoc accounting.
        """
        d = self.delta(since)
        stall = busy = 0
        for cid in core_ids:
            regs = d["core"].get(cid, {})
            stall += (regs.get("stall_mem", 0) + regs.get("stall_atomic", 0)
                      + regs.get("stall_fence", 0))
            busy += d["hw"].get(cid, {}).get("busy", 0)
        return {"busy": float(busy), "stall": float(stall)}


def counters_csv(agg: Dict[str, Any]) -> str:
    """Render an aggregated snapshot/delta as long-format CSV."""
    lines = ["scope,id,counter,value"]
    for group in ("core", "line", "link", "hw"):
        for key in sorted(agg.get(group, {}), key=str):
            for name in sorted(agg[group][key]):
                v = agg[group][key][name]
                if v:
                    lines.append(f"{group},{key},{name},{v}")
    for k in sorted(agg.get("udn_hist", {})):
        lines.append(f"udn_hist,{k},deliveries,{agg['udn_hist'][k]}")
    for name in sorted(agg.get("global", {})):
        lines.append(f"global,,{name},{agg['global'][name]}")
    for name in sorted(agg.get("source", {})):
        lines.append(f"source,,{name},{agg['source'][name]}")
    return "\n".join(lines) + "\n"


_HANDLERS = {
    "cache.miss": PerfCounters._on_cache_miss,
    "cache.stall": PerfCounters._on_cache_stall,
    "cache.inval": PerfCounters._on_cache_inval,
    "fence.stall": PerfCounters._on_fence_stall,
    "atomic.exec": PerfCounters._on_atomic_exec,
    "atomic.stall": PerfCounters._on_atomic_stall,
    "atomic.cas_fail": PerfCounters._on_cas_fail,
    "udn.send": PerfCounters._on_udn_send,
    "udn.backpressure": PerfCounters._on_udn_backpressure,
    "udn.deliver": PerfCounters._on_udn_deliver,
    "udn.recv": PerfCounters._on_udn_recv,
    "udn.timeout": PerfCounters._on_udn_timeout,
    "noc.link": PerfCounters._on_noc_link,
    "noc.packet": PerfCounters._on_noc_packet,
    "combiner.close": PerfCounters._on_combiner_close,
    "server.req": PerfCounters._on_server_req,
    "server.done": PerfCounters._on_server_done,
    "proc.kill": lambda self, t, f: self._on_proc(t, f, "proc_kills"),
    "proc.interrupt": lambda self, t, f: self._on_proc(t, f, "proc_interrupts"),
    "fault.retry": lambda self, t, f: self._on_fault(t, f, "ops_retried"),
    "fault.failover": lambda self, t, f: self._on_fault(t, f, "failovers"),
    "fault.takeover": lambda self, t, f: self._on_fault(t, f, "takeovers"),
}
