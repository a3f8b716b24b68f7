"""Hardware performance counters: the simulated chip's perf counter file.

:class:`PerfCounters` is the "perf counter file" of the simulated chip:
a set of monotonically increasing registers written directly by the
hardware models (cache directory, atomics executors, UDN fabric, NoC
links, delegation cores, engine) plus the cores' own cycle registers.
The event bus only narrates; nothing here listens to it.  Like real
PMUs the file is queried with before/after snapshots::

    before = machine.obs.counters.snapshot()
    ...  # run a measurement window
    delta = machine.obs.counters.delta(before)
    delta["core"][3]["miss.load.M->S"]   # misses by coherence transition
    delta["line"][17]["stall_cycles"]    # per-cache-line contention
    delta["link"]["4->5"]["flit_cycles"] # mesh link occupancy
    delta["udn_hist"][6]                 # deliveries with latency in [32,64)

Every site that publishes a counted event first calls one write method
below, inside its ``if obs is not None:`` guard and before the ``emit``
(a flight-recorder dump the event triggers must see it counted).
Unobserved runs therefore write nothing.

Register groups
---------------
``core``      per-core: misses by transition (``miss.load.M->S``,
              ``miss.store.inv``, ...), ``invalidations_received``,
              ``cas_failures``, stall cycles (``stall_mem`` /
              ``stall_atomic`` / ``stall_fence``), UDN words/messages
              sent and received, backpressure cycles.
``line``      per-cache-line: ``misses``, ``invalidations``,
              ``stall_cycles``, ``atomics``, ``cas_failures`` -- the raw
              material of the contention heatmap.
``link``      per directed mesh link: ``flit_cycles`` (occupancy),
              ``wait_cycles`` (queueing) and ``packets`` (link
              acquisitions).  Keyed ``(a, b)`` in the file, ``"a->b"``
              in snapshots; the spatial atlas reads it directly.
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

``core`` registers the cores already keep (``stall_*``, ``cas_failures``,
``udn_msgs_sent`` / ``udn_msgs_received``) are read from ``hw``, not
counted twice, and appear only when non-zero.  ``backpressure_cycles``
is counted here: the fabric's per-sender total also holds timed-out sends.
The spatial atlas (:mod:`repro.obs.spatial`) keeps no copy of the
``link`` registers or of ``backpressure_cycles``; it reads them here.

Every register group is **baselined at enable time**: the ``hw``
registers subtract the core snapshots taken when this PerfCounters was
constructed, and a ``source`` registered mid-run subtracts its value at
registration.  Without that, observability enabled after warm-up (or a
source registered after the first snapshot) would fold pre-enable
totals into the first window's delta -- a garbage baseline.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Any, Callable, Dict

__all__ = ["PerfCounters", "counters_csv", "merge_counters", "latency_bucket"]

#: ``core`` registers read from the ``hw`` group: (core name, hw name)
_HW_CORE_REGS = (("stall_mem", "stall_mem"), ("stall_atomic", "stall_atomic"),
                 ("stall_fence", "stall_fence"), ("cas_failures", "cas_failures"),
                 ("udn_msgs_sent", "msgs_sent"), ("udn_msgs_received", "msgs_received"))


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
    """Monotonic counter registers written by the hardware models."""

    def __init__(self, machine):
        self.machine = machine
        self.core = _nested()       # cid -> register -> value
        self.line = _nested()       # line no -> register -> value
        self.link = _nested()       # (a, b) -> register -> value
        self.global_: Dict[str, int] = defaultdict(int)
        self.udn_hist: Dict[int, int] = defaultdict(int)  # bucket -> count
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

    # -- writes: one call per counted event, named in the comment ---------
    def miss(self, cid, line, op, transition, latency):  # cache.miss
        c = self.core[cid]
        c["miss." + op + "." + transition] += 1
        c["misses"] += 1
        ln = self.line[line]
        ln["misses"] += 1
        ln["miss_latency_cycles"] += latency

    def stall(self, line, cycles):  # cache.stall, atomic.stall
        self.line[line]["stall_cycles"] += cycles

    def inval(self, cid, line):  # cache.inval (cid = the victim)
        self.core[cid]["invalidations_received"] += 1
        self.line[line]["invalidations"] += 1

    def atomic(self, cid, line, cold, service):  # atomic.exec
        c = self.core[cid]
        c["atomics"] += 1
        if cold:
            c["atomics_cold"] += 1
        self.line[line]["atomics"] += 1
        self.global_["atomic_service_cycles"] += service

    def cas_fail(self, line):  # atomic.cas_fail
        self.line[line]["cas_failures"] += 1

    def udn_send(self, cid, words):  # udn.send
        self.core[cid]["udn_words_sent"] += words

    def backpressure(self, cid, cycles):  # udn.backpressure
        self.core[cid]["backpressure_cycles"] += cycles
        self.global_["backpressure_events"] += 1

    def udn_deliver(self, latency):  # udn.deliver
        self.udn_hist[latency_bucket(latency)] += 1
        self.global_["udn_deliveries"] += 1

    def udn_recv(self, cid, words, waited):  # udn.recv
        c = self.core[cid]
        c["udn_words_received"] += words
        c["udn_wait_cycles"] += waited

    def link_busy(self, a, b, busy, wait):  # noc.link
        lk = self.link[(a, b)]
        lk["flit_cycles"] += busy
        lk["wait_cycles"] += wait
        lk["packets"] += 1

    def packet(self, cycles):  # noc.packet
        self.global_["noc_packets"] += 1
        self.global_["noc_packet_cycles"] += cycles

    def combined(self, ops):  # combiner.close
        self.global_["combining_sessions"] += 1
        self.global_["combined_ops"] += ops

    def served(self, cid):  # server.req
        self.core[cid]["requests_served"] += 1
        self.global_["requests_served"] += 1

    def service(self, cid, cycles):  # server.done
        self.core[cid]["service_cycles"] += cycles
        self.global_["ops_serviced"] += 1

    def count(self, name):  # proc.kill/interrupt, udn.timeout, fault.*
        self.global_[name] += 1

    # -- snapshots ----------------------------------------------------------
    def snapshot(self) -> Dict[str, Any]:
        """Plain-dict copy of every register, including the core hw ones."""
        base = self._hw_base
        hw = {
            c.cid: {name: v - base[c.cid][name]
                    for name, v in c.snapshot().items()}
            for c in self.machine.cores
        }
        core = {cid: dict(regs) for cid, regs in self.core.items()}
        for cid, regs in hw.items():
            for name, hw_name in _HW_CORE_REGS:
                v = regs[hw_name]
                if v:
                    core.setdefault(cid, {})[name] = v
        return {
            "core": core,
            "line": {ln: dict(regs) for ln, regs in self.line.items()},
            "link": {f"{a}->{b}": dict(regs)
                     for (a, b), regs in self.link.items()},
            "udn_hist": dict(sorted(self.udn_hist.items())),
            "global": dict(self.global_),
            "hw": hw,
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
