# Reference copy of the spatial hop ledger as it was when the bus fed it:
# every per-message record opened on ``udn.send``, charged per-hop waits
# from ``noc.link`` and closed on ``udn.deliver``.  Used only as the
# oracle of tests/test_spatial_hops_oracle.py, which subscribes it beside
# the live repro.obs.SpatialAtlas (whose ledger the UDN fabric writes
# inline) and requires identical hop totals and records.  The message
# handling below is kept verbatim from the atlas; do not "fix" it to
# match.

from __future__ import annotations

from typing import Any, Dict, List, Tuple

from repro.obs.bus import named

#: the kinds the ledger consumed from the bus
KINDS = ("udn.send", "noc.link", "udn.deliver")


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


class HopLedger:
    """The bus-fed per-message hop ledger of one machine."""

    def __init__(self, machine, hop_limit: int = 100_000):
        self.mesh = machine.mesh
        self._node_of = [c.node for c in machine.cores]
        self.hop_limit = hop_limit
        self._route_cache: Dict[Tuple[int, int], Tuple[Tuple[int, int], ...]] = {}
        # msg_id -> [src_node, dst_node, words, [(a, b, wait), ...]]
        self._open: Dict[int, list] = {}
        self.records: List[_MsgRecord] = []
        self.records_dropped = 0
        self.hop_totals = {"messages": 0, "latency": 0, "queue": 0,
                           "transit": 0, "eject": 0, "skew": 0}

    def summary(self) -> Dict[str, int]:
        """What ``SpatialAtlas.summary()["hops"]`` reported."""
        out = dict(self.hop_totals)
        out["records"] = len(self.records)
        out["records_dropped"] = self.records_dropped
        return out

    def on_event(self, t: int, kind: str, args: Tuple[Any, ...]) -> None:
        f = named(kind, args)
        if kind == "udn.send":
            # hops mode only: open this message's ledger entry (the
            # pair/word aggregation already happened inline in the fabric)
            self._open[f["msg_id"]] = [self._node_of[f["core"]],
                                       self._node_of[f["dst_core"]],
                                       f["words"], []]
        elif kind == "noc.link":
            entry = self._open.get(f.get("msg_id"))
            if entry is not None:
                entry[3].append((f["a"], f["b"], f["wait"]))
        elif kind == "udn.deliver":
            # hops mode only (aggregation is inline in the fabric)
            entry = self._open.pop(f.get("msg_id"), None)
            if entry is not None:
                self._close_record(f["msg_id"], entry, f["latency"])

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


# Reference copy of the atlas's bus-fed link occupancy and backpressure,
# as they were when the atlas subscribed to ``noc.link`` and
# ``udn.backpressure`` (it now reads the perf counter file's ``link``
# registers and per-core ``backpressure_cycles``).  The per-hop wait
# join the same ``noc.link`` handler fed is HopLedger's above.  Used
# only by tests/test_spatial_hops_oracle.py; the folding and the
# summary's link/tile assembly below are kept verbatim from the atlas.

#: the kinds the atlas's occupancy consumed from the bus
OCCUPANCY_KINDS = ("udn.backpressure", "noc.link")


class BusOccupancy:
    """The bus-fed occupancy and backpressure of one machine's atlas."""

    def __init__(self, machine):
        self._node_of = [c.node for c in machine.cores]
        self.contended = machine.contended_mesh is not None
        # measured contended-mesh occupancy: (a, b) -> [busy, wait, pkts]
        self._measured: Dict[Tuple[int, int], List[int]] = {}
        self._fresh_measured: Dict[Tuple[int, int], List[int]] = {}
        # sender node -> blocked cycles
        self._backpressure: Dict[int, int] = {}

    def on_event(self, t: int, kind: str, args: Tuple[Any, ...]) -> None:
        f = named(kind, args)
        if kind == "noc.link":
            link = (f["a"], f["b"])
            e = self._fresh_measured.get(link)
            if e is None:
                self._fresh_measured[link] = [f["busy"], f["wait"], 1]
            else:
                e[0] += f["busy"]
                e[1] += f["wait"]
                e[2] += 1
        elif kind == "udn.backpressure":
            node = self._node_of[f["core"]]
            self._backpressure[node] = (
                self._backpressure.get(node, 0) + f["cycles"])

    def flush(self) -> Dict[Tuple[int, int], int]:
        """Fold fresh link counters; returns measured busy deltas."""
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
        return busy_delta

    def summary(self, atlas) -> Dict[str, Any]:
        """``atlas.summary()``'s ``links`` and ``tiles``, with occupancy
        and backpressure from this oracle and the inline-counted
        traffic and deliveries from ``atlas``."""
        from repro.obs.spatial import (
            _LINK_FIELDS,
            _TILE_FIELDS,
            _link_key,
            _with_shares,
        )

        atlas.flush()
        self.flush()
        links: Dict[str, Dict[str, Any]] = {}
        for (a, b), (m, w) in atlas._traffic.items():
            links[_link_key(a, b)] = dict(zip(_LINK_FIELDS, (m, w, 0, 0, 0)))
        for (a, b), (busy, wait, pkts) in self._measured.items():
            e = links.setdefault(_link_key(a, b),
                                 dict.fromkeys(_LINK_FIELDS, 0))
            e["busy"], e["wait"], e["packets"] = busy, wait, pkts
        tiles: Dict[str, Dict[str, Any]] = {}

        def tile(node: int) -> Dict[str, Any]:
            return tiles.setdefault(str(node), dict.fromkeys(_TILE_FIELDS, 0))

        src_basis = self._measured if self.contended else atlas._traffic
        for (a, b), vals in src_basis.items():
            tile(a)["out"] += vals[0] if self.contended else vals[1]
        for (_src, core_id), (m, w, lat, _q) in atlas._delivered.items():
            e = tile(self._node_of[core_id])
            e["in_msgs"] += m
            e["in_words"] += w
            e["deliver_latency"] += lat
        for node, cyc in self._backpressure.items():
            tile(node)["backpressure"] += cyc
        basis = "busy" if self.contended else "words"
        return {"links": _with_shares(links, basis),
                "tiles": _with_shares(tiles, "out", key=int)}
