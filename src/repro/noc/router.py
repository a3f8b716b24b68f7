"""Link-contention mesh model (ablation substrate).

:class:`ContendedMesh` wraps a :class:`~repro.noc.topology.Mesh` and adds
a FIFO :class:`~repro.sim.resources.Resource` per directed link.  A
packet traverses its XY route hop by hop, occupying each link for
``link_occupancy`` cycles per word (cut-through switching: the head
pays the hop latency, the body streams behind it).

This model is deliberately coarse -- one resource per link, no virtual
channels -- because its purpose is the ablation in the discussion
experiments: showing that for the synchronization workloads studied here
the analytic model and the contended model agree, i.e. the mesh is not
the bottleneck (the paper attributes all effects to coherence stalls and
memory-controller serialization, never to NoC congestion).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Generator, Optional

from repro.noc.topology import Mesh
from repro.sim.engine import Simulator
from repro.sim.resources import Resource

__all__ = ["ContendedMesh"]


class ContendedMesh:
    """Hop-by-hop packet transport with per-link FIFO arbitration."""

    def __init__(self, sim: Simulator, mesh: Mesh, *, link_occupancy: int = 1):
        self.sim = sim
        self.mesh = mesh
        self.link_occupancy = link_occupancy
        #: one FIFO per directed link ``a -> b``, created on first use and
        #: keyed ``a * num_nodes + b`` (no tuple to build and hash per hop)
        self._links: Dict[int, Resource] = {}
        #: total packets fully delivered (stats)
        self.packets_delivered = 0
        #: total cycles packets spent queued at links (stats)
        self.total_link_wait = 0
        #: total link-busy cycles across all links (the telemetry flit
        #: gauge: a running aggregate of the per-link ``flit_cycles``
        #: perf-counter registers, maintained whether or not obs is on)
        self.total_flit_cycles = 0

    def transit(self, src: int, dst: int, words: int = 1,
                msg_id: Any = None,
                arrive: Optional[Callable[..., Generator]] = None,
                ) -> Generator[Any, Any, int]:
        """Move a packet from ``src`` to ``dst``; returns total transit cycles.

        Driven by the simulator, either with ``yield from`` inside a
        process or as a background task of its own
        (``sim.start(mesh.transit(...))``).  What "delivery" means (e.g.
        appending to a UDN buffer) is the caller's: ``arrive(src, dst,
        cycles)``, a generator, runs as the packet's last step (so a
        task needs no wrapper frame around every hop), or the caller
        acts once this generator returns.  ``msg_id`` is pure
        observability: it tags the ``noc.link`` events, which is how a
        traced machine's per-hop waits are joined to their message
        (:meth:`repro.obs.spatial.SpatialAtlas.hop_records`); protocols
        never read it.
        """
        sim = self.sim
        mesh = self.mesh
        t0 = sim.now
        if src != dst:
            per_hop = mesh.per_hop
            occupancy = self.link_occupancy * words
            busy = max(occupancy, per_hop)
            # The link stays busy while the packet body streams through.
            tail = occupancy - per_hop
            links = self._links
            nodes = mesh.num_nodes
            path = mesh.route(src, dst)
            a = src
            for hop in range(len(path) - 1):
                b = path[hop + 1]
                link = links.get(a * nodes + b)
                if link is None:
                    link = links[a * nodes + b] = Resource(sim)
                wait = 0
                if not link.try_acquire():
                    w0 = sim.now
                    yield from link.acquire()
                    wait = sim.now - w0
                    self.total_link_wait += wait
                self.total_flit_cycles += busy
                obs = sim.obs
                if obs is not None:
                    lk = obs.counters.link[a, b]
                    lk["flit_cycles"] += busy
                    lk["wait_cycles"] += wait
                    lk["packets"] += 1
                    if "noc.link" in obs.wanted:
                        obs.emit("noc.link", a, b, wait, busy, hop, msg_id)
                try:
                    yield per_hop
                finally:
                    if tail > 0:
                        link.release_at(sim.now + tail)
                    else:
                        link.release()
                a = b
        # Router pipeline / injection+ejection overhead.
        yield mesh.base + mesh.per_word * (words - 1)
        self.packets_delivered += 1
        cycles = sim.now - t0
        obs = sim.obs
        if obs is not None:
            glob = obs.counters.global_
            glob["noc_packets"] += 1
            glob["noc_packet_cycles"] += cycles
            if "noc.packet" in obs.wanted:
                obs.emit("noc.packet", src, dst, words, cycles)
        if arrive is not None:
            yield from arrive(src, dst, cycles)
        return cycles
