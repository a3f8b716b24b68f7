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

Every site that publishes a counted event writes its registers in
place, inside its ``if obs is not None:`` guard and before the ``emit``
(a flight-recorder dump the event triggers must see it counted)::

    row = obs.counters.core[cid]
    row[UDN_WORDS_RECEIVED] += k

No Python call is made: the file costs what a register write costs, and
unobserved runs write nothing.  The one exception is a service span,
which the delegation cores close through one recorder,
:meth:`~repro.core.api.SyncPrimitive.record_service`, that also emits
its ``server.done``.  The storage is laid out for that write,
and :meth:`PerfCounters.snapshot` folds it back into the plain-dict
shape below:

* ``core[cid]`` is a fixed-slot list; :data:`CORE_SLOTS` names each slot
  (the module's slot constants index it).  Misses by transition are a
  sparse ``miss_kinds[(cid, op, transition)]`` count.
* ``line[line_no]`` and ``link[(a, b)]`` are sparse dict rows and
  ``global_`` a dict, written by register name at the site.
* ``pair[(src core, dst core)]`` is a fixed-slot list per UDN core pair
  (:data:`PAIR_SLOTS`), created by the pair's first send or delivery.
* ``latency_hist[latency.bit_length()]`` is the UDN delivery-latency
  histogram (exact for latency >= 0).

Register groups
---------------
``core``      per-core: misses by transition (``miss.load.M->S``,
              ``miss.store.inv``, ...), ``invalidations_received``,
              ``cas_failures``, stall cycles (``stall_mem`` /
              ``stall_atomic`` / ``stall_fence``), UDN words/messages
              sent and received, backpressure cycles, service spans.
              ``udn_words_sent`` is summed from the ``pair`` rows.
``line``      per-cache-line: ``misses``, ``invalidations``,
              ``stall_cycles``, ``atomics``, ``cas_failures`` -- the raw
              material of the contention heatmap.
``link``      per directed mesh link: ``flit_cycles`` (occupancy),
              ``wait_cycles`` (queueing) and ``packets`` (link
              acquisitions).  Keyed ``(a, b)`` in the file, ``"a->b"``
              in snapshots; the spatial atlas reads it directly.
``pair``      per (src core, dst core) UDN pair: messages and words
              sent, then messages, words, latency and link queueing
              delivered.  The UDN fabric's one ledger of its traffic:
              the spatial atlas reads it, and it stays out of
              snapshots (the per-core sums go in).
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
``pair`` rows, the ``link`` registers or ``backpressure_cycles``; it
reads them here.

Every register group is **baselined at enable time**: the ``hw``
registers subtract the core snapshots taken when this PerfCounters was
constructed, and a ``source`` registered mid-run subtracts its value at
registration.  Without that, observability enabled after warm-up (or a
source registered after the first snapshot) would fold pre-enable
totals into the first window's delta -- a garbage baseline.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Any, Callable, Dict, List, Tuple

__all__ = ["CORE_SLOTS", "PAIR_SLOTS", "PerfCounters", "counters_csv",
           "merge_counters", "latency_bucket",
           "MISSES", "INVALIDATIONS", "ATOMICS", "ATOMICS_COLD",
           "BACKPRESSURE_CYCLES", "UDN_WORDS_RECEIVED", "UDN_WAIT_CYCLES",
           "SERVICE_CYCLES", "SERVICES",
           "PAIR_SENT", "PAIR_SENT_WORDS", "PAIR_DELIVERED",
           "PAIR_DELIVERED_WORDS", "PAIR_LATENCY", "PAIR_QUEUE"]

#: per-core register slots of ``PerfCounters.core[cid]``
(MISSES, INVALIDATIONS, ATOMICS, ATOMICS_COLD, BACKPRESSURE_CYCLES,
 UDN_WORDS_RECEIVED, UDN_WAIT_CYCLES, SERVICE_CYCLES, SERVICES) = range(9)

#: slots of ``PerfCounters.pair[(src core, dst core)]``: messages and
#: words sent, then messages, words, summed latency and summed link
#: queueing (contended transit beyond the idle mesh's) of those delivered
PAIR_SLOTS = ("sent", "sent_words", "delivered", "delivered_words",
              "latency", "queue")
(PAIR_SENT, PAIR_SENT_WORDS, PAIR_DELIVERED, PAIR_DELIVERED_WORDS,
 PAIR_LATENCY, PAIR_QUEUE) = range(len(PAIR_SLOTS))

#: slot -> (register name in snapshots, the slot that says it was
#: written).  A register appears once its event has been counted, even at
#: value 0: a receive may wait 0 cycles and a service span may last 0, so
#: those two are shown by the count written beside them.  ``SERVICES``
#: is that count for service spans; it is no register of its own.
CORE_SLOTS = (
    ("misses", MISSES),
    ("invalidations_received", INVALIDATIONS),
    ("atomics", ATOMICS),
    ("atomics_cold", ATOMICS_COLD),
    ("backpressure_cycles", BACKPRESSURE_CYCLES),
    ("udn_words_received", UDN_WORDS_RECEIVED),
    ("udn_wait_cycles", UDN_WORDS_RECEIVED),
    ("service_cycles", SERVICES),
    (None, SERVICES),
)

#: ``global`` registers summed from per-core slots: (name, slot)
_GLOBAL_SUMS = (("ops_serviced", SERVICES),)

#: latency-histogram buckets: bit lengths of 0 .. 2**64 - 1 cycles
_HIST_BUCKETS = 65

#: ``core`` registers read from the ``hw`` group: (core name, hw name)
_HW_CORE_REGS = (("stall_mem", "stall_mem"), ("stall_atomic", "stall_atomic"),
                 ("stall_fence", "stall_fence"), ("cas_failures", "cas_failures"),
                 ("udn_msgs_sent", "msgs_sent"), ("udn_msgs_received", "msgs_received"))


def latency_bucket(latency: int) -> int:
    """Histogram bucket for a latency >= 0: 0, then ``[2^(k-1), 2^k)`` -> k
    (the bucket the UDN fabric writes in place)."""
    return latency.bit_length()


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
        # cid -> slot -> value (see CORE_SLOTS)
        self.core: List[List[int]] = [[0] * len(CORE_SLOTS)
                                      for _ in machine.cores]
        # (cid, op, transition) -> misses
        self.miss_kinds: Dict[Tuple[int, str, str], int] = defaultdict(int)
        self.line = _nested()       # line no -> register -> value
        self.link = _nested()       # (a, b) -> register -> value
        # (src core, dst core) -> slot -> value (see PAIR_SLOTS)
        self.pair: Dict[Tuple[int, int], List[int]] = {}
        self.global_: Dict[str, int] = defaultdict(int)
        self.latency_hist = [0] * _HIST_BUCKETS  # bucket -> deliveries
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

    @property
    def udn_hist(self) -> Dict[int, int]:
        """The delivery-latency histogram's non-empty buckets."""
        return {k: v for k, v in enumerate(self.latency_hist) if v}

    # -- snapshots ----------------------------------------------------------
    def snapshot(self) -> Dict[str, Any]:
        """Plain-dict copy of every register, including the core hw ones."""
        base = self._hw_base
        hw = {
            c.cid: {name: v - base[c.cid][name]
                    for name, v in c.snapshot().items()}
            for c in self.machine.cores
        }
        core: Dict[int, Dict[str, int]] = {}
        for cid, row in enumerate(self.core):
            regs = {name: row[slot]
                    for slot, (name, written) in enumerate(CORE_SLOTS)
                    if name is not None and row[written]}
            if regs:
                core[cid] = regs
        for (src, _dst), row in self.pair.items():
            if row[PAIR_SENT_WORDS]:
                regs = core.setdefault(src, {})
                regs["udn_words_sent"] = (regs.get("udn_words_sent", 0)
                                          + row[PAIR_SENT_WORDS])
        for (cid, op, transition), v in self.miss_kinds.items():
            core.setdefault(cid, {})["miss." + op + "." + transition] = v
        glob = dict(self.global_)
        for name, slot in _GLOBAL_SUMS:
            v = sum(row[slot] for row in self.core)
            if v:
                glob[name] = v
        udn_hist = self.udn_hist
        if udn_hist:
            glob["udn_deliveries"] = sum(udn_hist.values())
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
            "udn_hist": udn_hist,
            "global": glob,
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
