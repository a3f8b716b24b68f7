"""Spatial NoC observability: the per-link / per-tile congestion atlas.

The paper's central claim is that routing synchronization over the
on-chip network changes *where* cycles are spent on the mesh; every
collector before this one was aspatial (per-core registers, per-link
totals with no geometry).  :class:`SpatialAtlas` is a mesh-shaped view,
computed when read, over state the hardware models already keep:

* analytic traffic -- each message's XY route is charged to every
  directed link it crosses (msgs + words), from per-(src, dst) send
  totals the :class:`~repro.udn.udn.UdnFabric` counts inline;
* measured occupancy on the contended mesh -- busy cycles, queueing
  cycles and packet counts per directed link, read from the perf
  counter file's ``link`` registers;
* per-tile delivery counts and latency, and the hop ledger, written
  inline by the fabric at each delivery;
* per-sender-tile cycles blocked on a full destination buffer, summed
  from the counter file's per-core ``backpressure_cycles``.

The atlas subscribes to nothing on the event bus, and its hot path is
priced like the fabric's own stats registers: it hands its
accumulators to the fabric (``spatial_sends`` / ``spatial_delivers`` /
``spatial_records``), which counts inline -- one dict update, no Python
call, ``None``-checked exactly like ``sim.obs`` so the disabled cost is
one attribute test.  Routes are expanded into links *lazily* at
sampling ticks and at :meth:`summary` time, never per message: each
(src core, dst core) pair resolves once to the ``_traffic`` rows of the
links it crosses, and a flush adds its fresh totals straight to them.

With a :class:`~repro.obs.timeseries.Sampler` attached the atlas also
publishes per-link and per-tile ring series (``spatial.link.a>b``,
``spatial.tile.n``) -- created lazily for links that actually carried
traffic, capped at ``max_series`` so a 1024-core mesh cannot allocate
4k rings behind your back.

Hop-by-hop latency attribution (``hops=True``) splits each delivered
message's end-to-end delivery latency into per-hop *queueing*
(measured link-acquire waits on the contended mesh, zero on the
analytic one) and *transit* (``per_hop`` each), plus the
injection/ejection overhead ``base + per_word * (words - 1)`` and an
explicit ``skew`` residual (transit jitter / policy delays).  The
fabric writes this ledger inline too -- per-pair delivery totals and,
for each of the first ``hop_limit`` messages, one row of five typed
``array`` columns (msg_id and latency ``'q'``; src core, dst core and
words ``'H'`` when the machine's core count and ``udn_buffer_words``
fit in 16 bits, else ``'q'``: 22 bytes a message on any mesh up to
65,536 cores), plus on the contended mesh the per-hop waits its
packet collected, kept in a side dict keyed by row -- and the atlas
derives :attr:`~SpatialAtlas.hop_totals` and
:attr:`~SpatialAtlas.records` when read.  With no jitter installed the
attribution **conserves exactly**::

    sum(queue_i + transit_i) + eject + skew == end-to-end latency,
    skew == 0

which the conservation tests assert message by message against the UDN
latency histogram.  Note that backpressure is *not* part of delivery
latency by construction: a sender blocks before ``sent_at`` is taken
(see :mod:`repro.udn.udn`), so the atlas books it per sender tile
instead.
"""

from __future__ import annotations

from array import array
from typing import Any, Dict, List, NamedTuple, Optional, Tuple

from repro.noc.topology import Mesh
from repro.obs.bus import named
from repro.obs.counters import BACKPRESSURE_CYCLES

__all__ = ["SpatialAtlas", "merge_spatial_summaries", "render_hotspots",
           "causal_link_flows"]

#: summary schema version (bump when the dict shape changes)
SUMMARY_FORMAT = 1

#: spatial series record one point every this-many sampler ticks.  A
#: mesh has O(100) active links versus O(10) scalar sources, so
#: recording them at full tick cadence would triple the sampler's tick
#: cost; congestion geometry also moves far slower than scalar
#: counters, so the coarser cadence loses nothing the heatmap can show.
TICK_DECIMATION = 4


#: per-link / per-tile / hop-ledger summary fields, in dict order
_LINK_FIELDS = ("msgs", "words", "busy", "wait", "packets")
_TILE_FIELDS = ("out", "in_msgs", "in_words", "deliver_latency",
                "backpressure")
_HOP_FIELDS = ("messages", "latency", "queue", "transit", "eject", "skew",
               "records", "records_dropped")


#: a link or tile the atlas has not yet asked the sampler for a series
_UNSEEN = object()


def _link_key(a: int, b: int) -> str:
    return f"{a}>{b}"


def _with_shares(entries: Dict[str, Dict[str, Any]], basis: str,
                 key=None) -> Dict[str, Dict[str, Any]]:
    """``entries`` sorted by ``key``, each given its ``share`` of the
    ``basis`` total."""
    total = sum(e[basis] for e in entries.values())
    for e in entries.values():
        e["share"] = (e[basis] / total) if total else 0.0
    return {k: entries[k] for k in sorted(entries, key=key)}


class _MsgRecord(NamedTuple):
    """Hop-by-hop attribution of one delivered message."""

    msg_id: int
    src: int        # source node
    dst: int        # destination node
    words: int
    latency: int    # end-to-end delivery latency
    queue: int      # sum of per-hop queueing
    transit: int    # sum of per-hop transit
    eject: int      # injection/ejection overhead
    skew: int       # latency - queue - transit - eject
    hops: List[Tuple[int, int, int, int]]  # (a, b, queue, transit) cycles

    def to_dict(self) -> Dict[str, Any]:
        d = self._asdict()
        d["hops"] = [list(h) for h in self.hops]
        return d


class SpatialAtlas:
    """Mesh-shaped view of NoC/UDN traffic (see module docs)."""

    def __init__(self, machine, counters, *, hops: bool = False,
                 hop_limit: int = 100_000, max_series: int = 160):
        self.mesh = machine.mesh
        #: the machine's perf counter file (link and backpressure registers)
        self._counters = counters
        self.width = self.mesh.width
        self.height = self.mesh.height
        #: core id -> mesh node (tiles host cores; spatial keys are nodes)
        self._node_of = [c.node for c in machine.cores]
        self.contended = machine.contended_mesh is not None
        self.record_hops = hops
        self.hop_limit = hop_limit
        self.max_series = max_series

        # -- hot-path accumulators (one inline dict update per event) ----
        # (src_core, dst_core) -> [msgs, words] since the last flush;
        # written inline by UdnFabric.send (installed below), mapped to
        # node pairs and expanded into links at flush time only
        self._fresh_pairs: Dict[Tuple[int, int], List[int]] = {}
        # (src_core, dst_core) -> [msgs, words, latency, queue] of
        # delivered messages; written by the fabric at each delivery,
        # mapped to nodes at read time
        self._delivered: Dict[Tuple[int, int], List[int]] = {}
        # the hop ledger's first hop_limit deliveries, one row each in
        # the columns (msg_id, src_core, dst_core, words, latency), the
        # middle three 16-bit when every core id and message size fits;
        # the contended mesh's per-hop waits [(a, b, wait), ...] of a
        # row that crossed a link are in _waits[row]
        small = max(len(machine.cores) - 1,
                    machine.cfg.udn_buffer_words) <= 0xFFFF
        narrow = "H" if small else "q"
        self._columns = tuple(array(code)
                              for code in ("q", narrow, narrow, narrow, "q"))
        self._waits: Dict[int, List[Tuple[int, int, int]]] = {}
        # hand the fabric the accumulators (see module docs); a machine
        # without hardware message passing simply has nothing to count
        udn = machine.udn
        if udn is not None:
            udn.spatial_sends = self._fresh_pairs
            udn.spatial_delivers = self._delivered
            if hops:
                udn.spatial_records = self._columns
                udn.spatial_waits = self._waits
                udn.spatial_record_limit = hop_limit

        # -- lazily expanded views ----------------------------------------
        # directed link -> [msgs, words] of analytic (route-charged) traffic
        self._traffic: Dict[Tuple[int, int], List[int]] = {}
        self._route_cache: Dict[Tuple[int, int], Tuple[Tuple[int, int], ...]] = {}
        # (src_core, dst_core) -> ((link, its _traffic row), ...) along
        # the pair's XY route
        self._pair_routes: Dict[Tuple[int, int],
                                Tuple[Tuple[Tuple[int, int], List[int]], ...]] = {}

        # -- sampler integration ------------------------------------------
        self._sampler = None
        self._series_made = 0
        # link / tile -> its series, or None once the cap refused it
        self._link_series: Dict[Tuple[int, int], Any] = {}
        self._tile_series: Dict[int, Any] = {}
        self.series_dropped = 0
        # link -> its flit_cycles register at the last recording tick
        self._busy_seen: Dict[Tuple[int, int], int] = {}

        self.messages = 0
        self.words = 0

    def _route_links(self, src: int, dst: int) -> Tuple[Tuple[int, int], ...]:
        links = self._route_cache.get((src, dst))
        if links is None:
            links = tuple(self.mesh.links(src, dst))
            self._route_cache[(src, dst)] = links
        return links

    # -- the hop ledger, derived when read ------------------------------------
    @property
    def hop_totals(self) -> Dict[str, int]:
        """Latency split summed over every delivered message: transit is
        ``per_hop`` x Manhattan hops, eject the mesh's fixed terms, queue
        the measured link waits, and skew the residual."""
        mesh, node_of = self.mesh, self._node_of
        messages = latency = queue = transit = eject = 0
        for (sc, dc), (m, w, lat, q) in self._delivered.items():
            messages += m
            latency += lat
            queue += q
            transit += m * mesh.per_hop * mesh.hops(node_of[sc], node_of[dc])
            eject += m * (mesh.base - mesh.per_word) + mesh.per_word * w
        return {"messages": messages, "latency": latency, "queue": queue,
                "transit": transit, "eject": eject,
                "skew": latency - queue - transit - eject}

    @property
    def records(self) -> List[_MsgRecord]:
        """Per-hop attribution of the first ``hop_limit`` deliveries."""
        mesh, node_of = self.mesh, self._node_of
        per_hop = mesh.per_hop
        waits_of = self._waits
        out = []
        for row, (msg_id, sc, dc, words, latency) in enumerate(
                zip(*self._columns)):
            src, dst = node_of[sc], node_of[dc]
            waits = waits_of.get(row)
            if waits:
                # contended mesh: queueing measured per link-acquire
                hops = [(a, b, w, per_hop) for a, b, w in waits]
            else:
                # analytic mesh (or src == dst): no queueing anywhere
                hops = [(a, b, 0, per_hop)
                        for a, b in self._route_links(src, dst)]
            queue = sum(h[2] for h in hops)
            transit = per_hop * len(hops)
            eject = mesh.base + mesh.per_word * (words - 1)
            out.append(_MsgRecord(msg_id, src, dst, words, latency, queue,
                                  transit, eject,
                                  latency - queue - transit - eject, hops))
        return out

    @property
    def records_dropped(self) -> int:
        """Deliveries past the record budget (still in the totals)."""
        return (sum(e[0] for e in self._delivered.values())
                - len(self._columns[0]))

    # -- lazy expansion -----------------------------------------------------
    def flush(self) -> Dict[Tuple[int, int], int]:
        """Fold fresh send counters into the cumulative views.

        Returns the analytic word deltas per directed link -- what a
        recording tick puts into the per-link series on the analytic
        mesh.  Called at every recording tick and before summaries; a
        run without a sampler pays exactly one flush at the end.
        """
        traffic_delta: Dict[Tuple[int, int], int] = {}
        fresh = self._fresh_pairs
        if fresh:
            routes = self._pair_routes
            messages = words = 0
            for pair, (m, w) in fresh.items():
                messages += m
                words += w
                route = routes.get(pair)
                if route is None:
                    route = routes[pair] = self._pair_route(*pair)
                for link, row in route:
                    row[0] += m
                    row[1] += w
                    traffic_delta[link] = traffic_delta.get(link, 0) + w
            self.messages += messages
            self.words += words
            fresh.clear()
        return traffic_delta

    def _pair_route(self, sc: int, dc: int
                    ) -> Tuple[Tuple[Tuple[int, int], List[int]], ...]:
        """The links core ``sc``'s messages to core ``dc`` cross, each
        with its ``_traffic`` row (created empty on first use)."""
        traffic = self._traffic
        out = []
        for link in self._route_links(self._node_of[sc], self._node_of[dc]):
            row = traffic.get(link)
            if row is None:
                row = traffic[link] = [0, 0]
            out.append((link, row))
        return tuple(out)

    def _busy_delta(self) -> Dict[Tuple[int, int], int]:
        """Measured busy cycles per link since the last call, diffed
        from the counter file's ``link`` registers."""
        seen = self._busy_seen
        delta: Dict[Tuple[int, int], int] = {}
        for link, regs in self._counters.link.items():
            busy = regs["flit_cycles"]
            last = seen.get(link, 0)
            if busy != last:
                delta[link] = busy - last
                seen[link] = busy
        return delta

    # -- sampler integration -------------------------------------------------
    def attach_sampler(self, sampler) -> None:
        """Publish per-link/per-tile ring series through ``sampler``.

        Series are created lazily on the first tick a link carries
        traffic, so an idle mesh costs nothing; on the contended mesh
        the link series carry measured busy cycles, otherwise analytic
        route-charged words.  Points land every
        :data:`TICK_DECIMATION` sampler ticks (see its docs).
        """
        self._sampler = sampler
        self._tick_no = 0
        sampler.subscribe(self._on_tick)

    def _on_tick(self, now: int) -> None:
        self._tick_no += 1
        if self._tick_no % TICK_DECIMATION:
            return
        traffic_delta = self.flush()
        unit = "cyc" if self.contended else "words"
        link_delta = self._busy_delta() if self.contended else traffic_delta
        tile_delta: Dict[int, int] = {}
        for (a, _b), v in link_delta.items():
            if v:
                tile_delta[a] = tile_delta.get(a, 0) + v
        self._record(now, self._link_series, link_delta, unit,
                     lambda link: f"spatial.link.{_link_key(*link)}")
        self._record(now, self._tile_series, tile_delta, unit,
                     "spatial.tile.{}".format)

    def _record(self, now: int, handles: Dict[Any, Any],
                deltas: Dict[Any, int], unit: str, name_of) -> None:
        """Record each nonzero delta in its key's series.  A key resolves
        its series once (``handles``): the sampler's series ``name_of
        (key)``, adopted if new, or None past ``max_series`` -- a capped
        key then counts in ``series_dropped`` on every tick it moves."""
        for key, v in deltas.items():
            if not v:
                continue
            ts = handles.get(key, _UNSEEN)
            if ts is _UNSEEN:
                ts = handles[key] = self._adopt(name_of(key), unit)
            if ts is None:
                self.series_dropped += 1
            else:
                ts.record(now, v)

    def _adopt(self, name: str, unit: str):
        if self._series_made >= self.max_series:
            return None
        self._series_made += 1
        sampler = self._sampler
        ts = sampler.series.get(name)
        if ts is None:
            from repro.obs.timeseries import TimeSeries
            ts = TimeSeries(name, kind="counter", buckets=sampler.buckets,
                            bucket_cycles=sampler.every * TICK_DECIMATION,
                            unit=unit)
            sampler.adopt(ts)
        return ts

    # -- views ----------------------------------------------------------------
    def summary(self) -> Dict[str, Any]:
        """JSON-ready atlas: the shared data model of heatmaps, hotspot
        reports, dashboards and ``repro diff``."""
        self.flush()
        links: Dict[Tuple[int, int], Dict[str, Any]] = {}
        for link, (m, w) in self._traffic.items():
            links[link] = dict(zip(_LINK_FIELDS, (m, w, 0, 0, 0)))
        for link, regs in self._counters.link.items():
            e = links.setdefault(link, dict.fromkeys(_LINK_FIELDS, 0))
            e["busy"], e["wait"], e["packets"] = (
                regs["flit_cycles"], regs["wait_cycles"], regs["packets"])
        # occupancy share: measured busy cycles when the contended mesh
        # ran, analytic route-charged words otherwise
        basis = "busy" if self.contended else "words"
        tiles: Dict[str, Dict[str, Any]] = {}

        def tile(node: int) -> Dict[str, Any]:
            return tiles.setdefault(str(node), dict.fromkeys(_TILE_FIELDS, 0))

        for (a, _b), e in links.items():
            if e[basis]:
                tile(a)["out"] += e[basis]
        node_of = self._node_of
        for (_src, core_id), (m, w, lat, _q) in self._delivered.items():
            e = tile(node_of[core_id])
            e["in_msgs"] += m
            e["in_words"] += w
            e["deliver_latency"] += lat
        for cid, row in enumerate(self._counters.core):
            if row[BACKPRESSURE_CYCLES]:
                tile(node_of[cid])["backpressure"] += row[BACKPRESSURE_CYCLES]
        out: Dict[str, Any] = {
            "format": SUMMARY_FORMAT,
            "mesh": {"width": self.width, "height": self.height},
            "contended": self.contended,
            "basis": basis,
            "messages": self.messages,
            "words": self.words,
            "links": _with_shares({_link_key(a, b): e
                                   for (a, b), e in links.items()}, basis),
            "tiles": _with_shares(tiles, "out", key=int),
            "series_dropped": self.series_dropped,
        }
        if self.record_hops:
            out["hops"] = hops = self.hop_totals
            hops["records"] = len(self._columns[0])
            hops["records_dropped"] = self.records_dropped
        return out


def merge_spatial_summaries(summaries) -> Optional[Dict[str, Any]]:
    """Sum atlas summaries of same-shaped meshes (a sweep's machines).

    Returns ``None`` for an empty input.  Mismatched mesh shapes raise:
    summing a 6x6 onto an 8x8 would silently misplace every tile.  So
    does a mismatched ``basis``: a tile's ``out`` is busy cycles on a
    contended mesh and words on an analytic one, and cannot be summed.
    """
    summaries = [s for s in summaries if s is not None]
    if not summaries:
        return None
    first = summaries[0]
    out: Dict[str, Any] = {
        "format": SUMMARY_FORMAT,
        "mesh": dict(first["mesh"]),
        "contended": first["contended"],
        "basis": first["basis"],
        "messages": 0, "words": 0,
        "links": {}, "tiles": {},
        "series_dropped": 0,
        "machines": 0,
    }
    hops_tot: Optional[Dict[str, int]] = None
    for s in summaries:
        if s["mesh"] != out["mesh"]:
            raise ValueError(
                f"cannot merge atlases of different meshes: "
                f"{s['mesh']} vs {out['mesh']}")
        if s["basis"] != out["basis"]:
            raise ValueError(
                f"cannot merge atlases of different bases: "
                f"{s['basis']} vs {out['basis']}")
        out["messages"] += s["messages"]
        out["words"] += s["words"]
        out["series_dropped"] += s.get("series_dropped", 0)
        out["machines"] += 1
        for group, fields in (("links", _LINK_FIELDS),
                              ("tiles", _TILE_FIELDS)):
            for key, e in s[group].items():
                t = out[group].setdefault(key, dict.fromkeys(fields, 0))
                for field in fields:
                    t[field] += e.get(field, 0)
        if "hops" in s:
            hops_tot = hops_tot or dict.fromkeys(_HOP_FIELDS, 0)
            for k in hops_tot:
                hops_tot[k] += s["hops"].get(k, 0)
    out["links"] = _with_shares(out["links"], out["basis"])
    out["tiles"] = _with_shares(out["tiles"], "out", key=int)
    if hops_tot is not None:
        out["hops"] = hops_tot
    return out


def causal_link_flows(summary: Dict[str, Any],
                      event_log) -> Dict[str, Dict[str, int]]:
    """Join link traffic to the ops that crossed each link.

    Walks the machine's :class:`~repro.obs.bus.EventLog`,
    tracking the current (tid, prim) op per core from ``op.begin`` and
    charging each ``udn.send``'s XY route to that op's flow.  Routes
    come from the atlas ``summary``'s mesh (core ``i`` sits on node
    ``i``), so a record read in another process resolves them too.
    Returns ``{link_key: {flow_label: msgs}}``.  Post-hoc and
    O(events): the hot path never pays for this join.
    """
    mesh = Mesh(summary["mesh"]["width"], summary["mesh"]["height"])
    flows: Dict[str, Dict[str, int]] = {}
    cur: Dict[int, str] = {}  # core -> flow label of its current op
    for _t, kind, args in event_log.events:
        if kind not in ("op.begin", "udn.send"):
            continue
        f = named(kind, args)
        if kind == "op.begin":
            cur[f["core"]] = f"{f['prim']}/t{f['tid']}"
        elif kind == "udn.send":
            label = cur.get(f["core"], f"core{f['core']}")
            for a, b in mesh.links(f["core"], f["dst_core"]):
                per = flows.setdefault(_link_key(a, b), {})
                per[label] = per.get(label, 0) + 1
    return flows


def render_hotspots(summary: Dict[str, Any], *, k: int = 5,
                    flows: Optional[Dict[str, Dict[str, int]]] = None) -> str:
    """Top-K links and tiles by occupancy share, as a terminal report.

    ``flows`` (from :func:`causal_link_flows`) annotates each hot link
    with the ops whose messages crossed it.
    """
    if summary is None or not summary.get("links"):
        return "hotspots: no NoC traffic observed"
    basis = summary["basis"]
    lines = [f"hotspots (top {k} by {basis} share, "
             f"{summary['messages']} msgs / {summary['words']} words)"]
    top = sorted(summary["links"].items(),
                 key=lambda kv: (-kv[1]["share"], kv[0]))[:k]
    for key, e in top:
        extra = f", wait {e['wait']} cyc" if e.get("wait") else ""
        lines.append(f"  link {key:>7s}  {e['share']:6.1%}  "
                     f"{e['msgs']} msgs / {e['words']} words{extra}")
        if flows and key in flows:
            per = sorted(flows[key].items(),
                         key=lambda kv: (-kv[1], kv[0]))[:3]
            ops = ", ".join(f"{label} x{n}" for label, n in per)
            lines.append(f"           ops: {ops}")
    topt = sorted(summary["tiles"].items(),
                  key=lambda kv: (-kv[1]["share"], int(kv[0])))[:k]
    for key, e in topt:
        note = []
        if e["in_msgs"]:
            note.append(f"{e['in_msgs']} deliveries")
        if e["backpressure"]:
            note.append(f"{e['backpressure']} bp cyc")
        suffix = f"  ({', '.join(note)})" if note else ""
        lines.append(f"  tile {key:>3s}    {e['share']:6.1%}  "
                     f"out {e['out']}{suffix}")
    return "\n".join(lines)
