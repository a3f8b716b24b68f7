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

    def on_event(self, t: int, kind: str, f: Dict[str, Any]) -> None:
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
