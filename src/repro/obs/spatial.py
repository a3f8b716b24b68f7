"""Spatial NoC observability: the per-link / per-tile congestion atlas.

The paper's central claim is that routing synchronization over the
on-chip network changes *where* cycles are spent on the mesh; every
collector before this one was aspatial (per-core registers, per-link
totals with no geometry).  :class:`SpatialAtlas` folds the existing bus
signals into mesh-shaped aggregates:

* ``udn.send``      -- analytic traffic: each message's XY route is
  charged to every directed link it crosses (msgs + words);
* ``noc.link``      -- measured occupancy on the contended mesh: busy
  cycles, queueing cycles and packet counts per directed link;
* ``udn.deliver``   -- per-destination-tile delivery counts/latency;
* ``udn.backpressure`` -- per-sender-tile cycles blocked on a full
  destination buffer.

The atlas is a pure observer, and its hot path is priced like the
fabric's own stats registers rather than like a bus subscriber:
``udn.send`` / ``udn.deliver`` make up more than half of all bus
events in a message-passing workload, so even a kind-filtered Python
handler per event would bust the sampling-overhead budget.  Instead
the atlas hands its accumulator dicts to the
:class:`~repro.udn.udn.UdnFabric` (``spatial_sends`` /
``spatial_delivers``) and the fabric counts inline -- one dict update,
no Python call, ``None``-checked exactly like ``sim.obs`` so the
disabled cost is one attribute test.  Only the rare kinds ride the bus
(``udn.backpressure``, ``noc.link``, plus send/deliver when the
per-message hop ledger is on).  Routes are expanded into links
*lazily* (route cache shared across flushes) at sampling ticks and at
:meth:`summary` time, never per message.

With a :class:`~repro.obs.timeseries.Sampler` attached the atlas also
publishes per-link and per-tile ring series (``spatial.link.a>b``,
``spatial.tile.n``) -- created lazily for links that actually carried
traffic, capped at ``max_series`` so a 1024-core mesh cannot allocate
4k rings behind your back.

Hop-by-hop latency attribution (``hops=True``) keeps one bounded record
per delivered message splitting its end-to-end ``udn.deliver`` latency
into per-hop *queueing* (measured link-acquire waits on the contended
mesh, zero on the analytic one) and *transit* (``per_hop`` each), plus
the injection/ejection overhead ``base + per_word * (words - 1)`` and
an explicit ``skew`` residual (transit jitter / policy delays).  With
no jitter installed the attribution **conserves exactly**::

    sum(queue_i + transit_i) + eject + skew == end-to-end latency,
    skew == 0

which the conservation tests assert message by message against the UDN
latency histogram.  Note that backpressure is *not* part of delivery
latency by construction: a sender blocks before ``sent_at`` is taken
(see :mod:`repro.udn.udn`), so the atlas books it per sender tile
instead.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

__all__ = ["SpatialAtlas", "SPATIAL_KINDS", "merge_spatial_summaries",
           "render_hotspots", "causal_link_flows"]

#: the bus kinds the atlas always consumes (kind-filtered subscription;
#: send/deliver are counted inline in the fabric instead, and only join
#: the subscription when the hop ledger needs per-message events --
#: see :meth:`SpatialAtlas.bus_kinds`)
SPATIAL_KINDS = ("udn.backpressure", "noc.link")

#: summary schema version (bump when the dict shape changes)
SUMMARY_FORMAT = 1

#: spatial series record one point every this-many sampler ticks.  A
#: mesh has O(100) active links versus O(10) scalar sources, so
#: recording them at full tick cadence would triple the sampler's tick
#: cost; congestion geometry also moves far slower than scalar
#: counters, so the coarser cadence loses nothing the heatmap can show.
TICK_DECIMATION = 4


def _link_key(a: int, b: int) -> str:
    return f"{a}>{b}"


class _MsgRecord:
    """Hop-by-hop attribution of one delivered message."""

    __slots__ = ("msg_id", "src", "dst", "words", "latency", "hops",
                 "queue", "transit", "eject", "skew")

    def __init__(self, msg_id, src, dst, words, latency, hops,
                 queue, transit, eject, skew):
        self.msg_id = msg_id
        self.src = src          # source node
        self.dst = dst          # destination node
        self.words = words
        self.latency = latency  # end-to-end udn.deliver latency
        self.hops = hops        # [(a, b, queue_cycles, transit_cycles)]
        self.queue = queue      # sum of per-hop queueing
        self.transit = transit  # sum of per-hop transit
        self.eject = eject      # injection/ejection overhead
        self.skew = skew        # latency - queue - transit - eject

    def to_dict(self) -> Dict[str, Any]:
        return {"msg_id": self.msg_id, "src": self.src, "dst": self.dst,
                "words": self.words, "latency": self.latency,
                "queue": self.queue, "transit": self.transit,
                "eject": self.eject, "skew": self.skew,
                "hops": [list(h) for h in self.hops]}


class SpatialAtlas:
    """Mesh-shaped aggregation of NoC/UDN bus signals (see module docs)."""

    def __init__(self, machine, *, hops: bool = False,
                 hop_limit: int = 100_000, max_series: int = 160):
        self.mesh = machine.mesh
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
        # cumulative (src_node, dst_node) -> [msgs, words]
        self._pairs: Dict[Tuple[int, int], List[int]] = {}
        # measured contended-mesh occupancy: (a, b) -> [busy, wait, pkts]
        self._measured: Dict[Tuple[int, int], List[int]] = {}
        self._fresh_measured: Dict[Tuple[int, int], List[int]] = {}
        # destination *core* -> [msgs, words, latency_total]; written
        # by the fabric at each delivery, mapped to nodes at summary time
        self._deliver: Dict[int, List[int]] = {}
        # sender node -> blocked cycles
        self._backpressure: Dict[int, int] = {}
        # hand the fabric the accumulators (see module docs); a machine
        # without hardware message passing simply has nothing to count
        udn = machine.udn
        if udn is not None:
            udn.spatial_sends = self._fresh_pairs
            udn.spatial_delivers = self._deliver

        # -- lazily expanded views ----------------------------------------
        # directed link -> [msgs, words] of analytic (route-charged) traffic
        self._traffic: Dict[Tuple[int, int], List[int]] = {}
        self._route_cache: Dict[Tuple[int, int], Tuple[Tuple[int, int], ...]] = {}

        # -- optional per-message hop ledger ------------------------------
        # msg_id -> [src_node, dst_node, words, [(a, b, wait), ...]]
        self._open: Dict[int, list] = {}
        self.records: List[_MsgRecord] = []
        self.records_dropped = 0
        self.hop_totals = {"messages": 0, "latency": 0, "queue": 0,
                           "transit": 0, "eject": 0, "skew": 0}

        # -- sampler integration ------------------------------------------
        self._sampler = None
        self._series: Dict[str, Any] = {}
        self.series_dropped = 0

        self.messages = 0
        self.words = 0

    def bus_kinds(self) -> Tuple[str, ...]:
        """The kinds this atlas wants from the bus.

        Send/deliver aggregation happens inline in the fabric; the bus
        only carries them here when the hop ledger needs per-message
        identity (``hops=True``).
        """
        if self.record_hops:
            return SPATIAL_KINDS + ("udn.send", "udn.deliver")
        return SPATIAL_KINDS

    # -- bus handlers (hot path) ------------------------------------------
    def on_event(self, t: int, kind: str, f: Dict[str, Any]) -> None:
        if kind == "udn.send":
            # hops mode only: open this message's ledger entry (the
            # pair/word aggregation already happened inline in the fabric)
            self._open[f["msg_id"]] = [self._node_of[f["core"]],
                                       self._node_of[f["dst_core"]],
                                       f["words"], []]
        elif kind == "noc.link":
            link = (f["a"], f["b"])
            e = self._fresh_measured.get(link)
            if e is None:
                self._fresh_measured[link] = [f["busy"], f["wait"], 1]
            else:
                e[0] += f["busy"]
                e[1] += f["wait"]
                e[2] += 1
            if self.record_hops:
                entry = self._open.get(f.get("msg_id"))
                if entry is not None:
                    entry[3].append((f["a"], f["b"], f["wait"]))
        elif kind == "udn.deliver":
            # hops mode only (aggregation is inline in the fabric)
            entry = self._open.pop(f.get("msg_id"), None)
            if entry is not None:
                self._close_record(f["msg_id"], entry, f["latency"])
        elif kind == "udn.backpressure":
            node = self._node_of[f["core"]]
            self._backpressure[node] = (
                self._backpressure.get(node, 0) + f["cycles"])

    def _route_links(self, src: int, dst: int) -> Tuple[Tuple[int, int], ...]:
        links = self._route_cache.get((src, dst))
        if links is None:
            links = tuple(self.mesh.links(src, dst))
            self._route_cache[(src, dst)] = links
        return links

    def _close_record(self, msg_id: int, entry: list, latency: int) -> None:
        src, dst, words, waits = entry
        mesh = self.mesh
        per_hop = mesh.per_hop
        if waits:
            # contended mesh: queueing measured per link-acquire
            hops = [(a, b, w, per_hop) for a, b, w in waits]
        else:
            # analytic mesh (or src == dst): no queueing anywhere
            hops = [(a, b, 0, per_hop) for a, b in self._route_links(src, dst)]
        queue = sum(h[2] for h in hops)
        transit = per_hop * len(hops)
        eject = mesh.base + mesh.per_word * (words - 1)
        skew = latency - queue - transit - eject
        tot = self.hop_totals
        tot["messages"] += 1
        tot["latency"] += latency
        tot["queue"] += queue
        tot["transit"] += transit
        tot["eject"] += eject
        tot["skew"] += skew
        if len(self.records) < self.hop_limit:
            self.records.append(_MsgRecord(msg_id, src, dst, words, latency,
                                           hops, queue, transit, eject, skew))
        else:
            self.records_dropped += 1

    # -- lazy expansion -----------------------------------------------------
    def flush(self) -> Tuple[Dict[Tuple[int, int], int],
                             Dict[Tuple[int, int], int]]:
        """Fold fresh pair/link counters into the cumulative views.

        Returns ``(analytic word deltas, measured busy deltas)`` per
        directed link -- what the sampler tick records into the per-link
        series.  Called at every sampling tick and before summaries; a
        run without a sampler pays exactly one flush at the end.
        """
        traffic_delta: Dict[Tuple[int, int], int] = {}
        if self._fresh_pairs:
            traffic = self._traffic
            pairs = self._pairs
            node_of = self._node_of
            for (sc, dc), (m, w) in self._fresh_pairs.items():
                self.messages += m
                self.words += w
                s, d = node_of[sc], node_of[dc]
                cum = pairs.get((s, d))
                if cum is None:
                    pairs[(s, d)] = [m, w]
                else:
                    cum[0] += m
                    cum[1] += w
                for link in self._route_links(s, d):
                    t = traffic.get(link)
                    if t is None:
                        traffic[link] = [m, w]
                    else:
                        t[0] += m
                        t[1] += w
                    traffic_delta[link] = traffic_delta.get(link, 0) + w
            self._fresh_pairs.clear()
        busy_delta: Dict[Tuple[int, int], int] = {}
        if self._fresh_measured:
            measured = self._measured
            for link, (busy, wait, pkts) in self._fresh_measured.items():
                cum = measured.get(link)
                if cum is None:
                    measured[link] = [busy, wait, pkts]
                else:
                    cum[0] += busy
                    cum[1] += wait
                    cum[2] += pkts
                busy_delta[link] = busy
            self._fresh_measured.clear()
        return traffic_delta, busy_delta

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

    def _series_for(self, name: str, unit: str):
        ts = self._series.get(name)
        if ts is None:
            if len(self._series) >= self.max_series:
                self.series_dropped += 1
                return None
            sampler = self._sampler
            ts = sampler.series.get(name)
            if ts is None:
                from repro.obs.timeseries import TimeSeries
                ts = TimeSeries(name, kind="counter", buckets=sampler.buckets,
                                bucket_cycles=sampler.every * TICK_DECIMATION,
                                unit=unit)
                sampler.adopt(ts)
            self._series[name] = ts
        return ts

    def _on_tick(self, now: int) -> None:
        self._tick_no += 1
        if self._tick_no % TICK_DECIMATION:
            return
        traffic_delta, busy_delta = self.flush()
        unit = "cyc" if self.contended else "words"
        link_delta = busy_delta if self.contended else traffic_delta
        tile_delta: Dict[int, int] = {}
        for (a, b), v in link_delta.items():
            if not v:
                continue
            ts = self._series_for(f"spatial.link.{_link_key(a, b)}", unit)
            if ts is not None:
                ts.record(now, v)
            tile_delta[a] = tile_delta.get(a, 0) + v
        for node, v in tile_delta.items():
            ts = self._series_for(f"spatial.tile.{node}", unit)
            if ts is not None:
                ts.record(now, v)

    # -- views ----------------------------------------------------------------
    def summary(self) -> Dict[str, Any]:
        """JSON-ready atlas: the shared data model of heatmaps, hotspot
        reports, dashboards and ``repro diff``."""
        self.flush()
        links: Dict[str, Dict[str, Any]] = {}
        for (a, b), (m, w) in self._traffic.items():
            links[_link_key(a, b)] = {"msgs": m, "words": w,
                                      "busy": 0, "wait": 0, "packets": 0}
        for (a, b), (busy, wait, pkts) in self._measured.items():
            e = links.setdefault(_link_key(a, b),
                                 {"msgs": 0, "words": 0, "busy": 0,
                                  "wait": 0, "packets": 0})
            e["busy"] = busy
            e["wait"] = wait
            e["packets"] = pkts
        # occupancy share: measured busy cycles when the contended mesh
        # ran, analytic route-charged words otherwise
        basis = "busy" if self.contended else "words"
        total = sum(e[basis] for e in links.values())
        for e in links.values():
            e["share"] = (e[basis] / total) if total else 0.0

        tiles: Dict[str, Dict[str, Any]] = {}

        def tile(node: int) -> Dict[str, Any]:
            key = str(node)
            e = tiles.get(key)
            if e is None:
                e = tiles[key] = {"out": 0, "in_msgs": 0, "in_words": 0,
                                  "deliver_latency": 0, "backpressure": 0}
            return e

        src_basis = self._measured if self.contended else self._traffic
        for (a, b), vals in src_basis.items():
            tile(a)["out"] += vals[0] if self.contended else vals[1]
        for core_id, (m, w, lat) in self._deliver.items():
            e = tile(self._node_of[core_id])
            e["in_msgs"] += m
            e["in_words"] += w
            e["deliver_latency"] += lat
        for node, cyc in self._backpressure.items():
            tile(node)["backpressure"] += cyc
        out_total = sum(e["out"] for e in tiles.values())
        for e in tiles.values():
            e["share"] = (e["out"] / out_total) if out_total else 0.0

        out: Dict[str, Any] = {
            "format": SUMMARY_FORMAT,
            "mesh": {"width": self.width, "height": self.height},
            "contended": self.contended,
            "basis": basis,
            "messages": self.messages,
            "words": self.words,
            "links": {k: links[k] for k in sorted(links)},
            "tiles": {k: tiles[k] for k in sorted(tiles, key=int)},
            "series_dropped": self.series_dropped,
        }
        if self.record_hops:
            out["hops"] = dict(self.hop_totals)
            out["hops"]["records"] = len(self.records)
            out["hops"]["records_dropped"] = self.records_dropped
        return out

    def top_links(self, k: int = 5) -> List[Tuple[str, Dict[str, Any]]]:
        s = self.summary()
        return sorted(s["links"].items(),
                      key=lambda kv: (-kv[1]["share"], kv[0]))[:k]


def merge_spatial_summaries(summaries) -> Optional[Dict[str, Any]]:
    """Sum atlas summaries of same-shaped meshes (a sweep's machines).

    Returns ``None`` for an empty input.  Mismatched mesh shapes raise:
    summing a 6x6 onto an 8x8 would silently misplace every tile.
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
        out["messages"] += s["messages"]
        out["words"] += s["words"]
        out["series_dropped"] += s.get("series_dropped", 0)
        out["machines"] += 1
        for key, e in s["links"].items():
            t = out["links"].setdefault(
                key, {"msgs": 0, "words": 0, "busy": 0, "wait": 0,
                      "packets": 0})
            for field in ("msgs", "words", "busy", "wait", "packets"):
                t[field] += e.get(field, 0)
        for key, e in s["tiles"].items():
            t = out["tiles"].setdefault(
                key, {"out": 0, "in_msgs": 0, "in_words": 0,
                      "deliver_latency": 0, "backpressure": 0})
            for field in ("out", "in_msgs", "in_words", "deliver_latency",
                          "backpressure"):
                t[field] += e.get(field, 0)
        h = s.get("hops")
        if h is not None:
            if hops_tot is None:
                hops_tot = {k: 0 for k in ("messages", "latency", "queue",
                                           "transit", "eject", "skew",
                                           "records", "records_dropped")}
            for k in hops_tot:
                hops_tot[k] += h.get(k, 0)
    basis = out["basis"]
    total = sum(e[basis] for e in out["links"].values())
    for e in out["links"].values():
        e["share"] = (e[basis] / total) if total else 0.0
    out_total = sum(e["out"] for e in out["tiles"].values())
    for e in out["tiles"].values():
        e["share"] = (e["out"] / out_total) if out_total else 0.0
    out["links"] = {k: out["links"][k] for k in sorted(out["links"])}
    out["tiles"] = {k: out["tiles"][k] for k in sorted(out["tiles"], key=int)}
    if hops_tot is not None:
        out["hops"] = hops_tot
    return out


def causal_link_flows(atlas: SpatialAtlas, causal) -> Dict[str, Any]:
    """Join link traffic to the ops that crossed each link.

    Walks a :class:`~repro.obs.causal.CausalCollector`'s event stream,
    tracking the current (tid, prim) op per core from ``op.begin`` and
    charging each ``udn.send``'s XY route to that op's flow.  Returns
    ``{link_key: {flow_label: msgs}}``.  Post-hoc and O(events): the
    hot path never pays for this join.
    """
    flows: Dict[str, Dict[str, int]] = {}
    cur: Dict[int, str] = {}  # core -> flow label of its current op
    node_of = atlas._node_of
    for _t, kind, f in causal.events:
        if kind == "op.begin":
            cur[f["core"]] = f"{f.get('prim', 'op')}/t{f['tid']}"
        elif kind == "udn.send":
            label = cur.get(f["core"], f"core{f['core']}")
            src, dst = node_of[f["core"]], node_of[f["dst_core"]]
            for a, b in atlas._route_links(src, dst):
                key = _link_key(a, b)
                per = flows.get(key)
                if per is None:
                    per = flows[key] = {}
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
