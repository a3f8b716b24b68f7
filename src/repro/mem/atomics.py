"""Atomic read-modify-write execution models.

The paper leans on a TILE-Gx peculiarity: *"atomic instructions on the
TILE-Gx are not executed in the local cache but on memory controllers"*
(Section 5.3), and *"two atomic instructions might collide on the memory
controller even if they have independent data sets"* (Section 5.4, the
LCRQ "false serialization" effect).  Two executors model the two worlds:

* :class:`ControllerAtomics` (TILE-Gx): the operation travels over the
  mesh to one of the memory controllers (address-interleaved), queues at
  a FIFO resource (false serialization across *independent* addresses),
  pays an extra penalty when it hits the same word as the previous
  operation at that controller (dependent RMWs cannot pipeline), applies
  in memory, invalidates every cached copy, and returns.  The issuing
  core stalls for the full round trip.

* :class:`CacheAtomics` (x86-like): the RMW executes in the cache
  hierarchy -- acquire the line exclusively (an RMR if not owned), then a
  short locked-op cost.  Fast when uncontended and line-resident; under
  contention the line bounces, which is the classic CAS-retry story.

Both return the *old* value; CAS logic is layered on top by
:class:`~repro.mem.cache.CoherentMemory`.
"""

from __future__ import annotations

from typing import Any, Callable, Generator, List

from repro.machine.config import MachineConfig
from repro.machine.core import Core
from repro.sim.engine import Simulator
from repro.sim.resources import Resource

__all__ = ["ControllerAtomics", "CacheAtomics", "make_atomics"]


class _Controller:
    """One memory controller: a FIFO execution port for atomics.

    ``last_word`` models the word the controller's RMW unit currently
    holds: consecutive atomics to that word stream at the short (hot)
    service time (an in-memory adder applying back-to-back updates); an
    atomic anywhere else must set up a new read-modify-write and pays
    the long (cold) occupancy -- Section 5.4's false serialization.
    """

    __slots__ = ("node", "res", "last_word", "ops", "cold_ops")

    def __init__(self, sim: Simulator, node: int):
        self.node = node
        self.res = Resource(sim, capacity=1)
        self.last_word: int = -1
        self.ops: int = 0
        self.cold_ops: int = 0


class ControllerAtomics:
    """TILE-Gx style: every RMW is a round trip to a memory controller."""

    def __init__(self, sim: Simulator, cfg: MachineConfig, mesh, mem) -> None:
        self.sim = sim
        self.cfg = cfg
        self.mesh = mesh
        self.mem = mem
        self.controllers: List[_Controller] = [
            _Controller(sim, node) for node in cfg.memory_controller_nodes
        ]

    def controller_for(self, addr: int) -> _Controller:
        """Address-interleaved controller selection (by line)."""
        line = addr // self.cfg.line_words
        return self.controllers[line % len(self.controllers)]

    def rmw(self, core: Core, addr: int, op: Callable[[int], int]) -> Generator[Any, Any, int]:
        cfg = self.cfg
        core.atomic_ops += 1
        line_no = addr // cfg.line_words
        if not cfg.has_coherent_shm:
            # private memory: the RMW is a local operation
            self.mem._private_check(core, line_no, "atomic")
            core.busy += cfg.c_atomic_local
            yield cfg.c_atomic_local
            backing = self.mem.store_backing
            old = backing.read(addr)
            backing.write(addr, op(old))
            self.mem.wake_line(line_no)
            return old
        # issue overhead at the core
        core.busy += cfg.c_atomic_issue
        yield cfg.c_atomic_issue

        ctrl = self.controller_for(addr)
        t0 = self.sim.now
        # travel to the controller (pipelined: pure latency, no occupancy)
        travel = cfg.noc_per_hop * self.mesh.hops(core.node, ctrl.node) + cfg.c_atomic_travel_extra
        if travel:
            yield travel
        # queue + execute at the controller (false serialization point)
        yield from ctrl.res.acquire()
        try:
            cold = ctrl.last_word != addr
            if cold:
                service = cfg.c_atomic_service_cold
                ctrl.cold_ops += 1
            else:
                service = cfg.c_atomic_service
            ctrl.last_word = addr
            ctrl.ops += 1
            obs = self.sim.obs
            if obs is not None:
                obs.counters.atomic(core.cid, line_no, cold, service)
                if "atomic.exec" in obs.wanted:
                    obs.emit("atomic.exec", core.cid, line_no, ctrl.node, cold, service)
            yield service
            backing = self.mem.store_backing
            old = backing.read(addr)
            backing.write(addr, op(old))
            # the controller invalidates every cached copy of the line
            self.mem.invalidate_all(line_no)
        finally:
            ctrl.res.release()
        # travel back with the old value
        if travel:
            yield travel
        stalled = self.sim.now - t0
        core.stall_atomic += stalled
        obs = self.sim.obs
        if obs is not None:
            obs.counters.stall(line_no, stalled)
            if "atomic.stall" in obs.wanted:
                obs.emit("atomic.stall", core.cid, stalled, line_no, t0)
        return old


class CacheAtomics:
    """x86 style: RMW in the cache hierarchy on an exclusively-held line."""

    def __init__(self, sim: Simulator, cfg: MachineConfig, mesh, mem) -> None:
        self.sim = sim
        self.cfg = cfg
        self.mesh = mesh
        self.mem = mem

    def rmw(self, core: Core, addr: int, op: Callable[[int], int]) -> Generator[Any, Any, int]:
        cfg = self.cfg
        mem = self.mem
        core.atomic_ops += 1
        line_no = addr // cfg.line_words
        entry = mem._line(line_no)
        cid = core.cid
        t0 = self.sim.now
        yield from entry.res.acquire()
        try:
            if entry.owner != cid:
                # bring the line in exclusively (RMR)
                core.rmr += 1
                latency = mem._miss_latency(entry, line_no, cid, True)
                obs = self.sim.obs
                if obs is not None:
                    transition = mem._store_transition(entry, cid)
                    obs.counters.miss(cid, line_no, "atomic", transition, latency)
                    if "cache.miss" in obs.wanted:
                        obs.emit("cache.miss", cid, line_no, "atomic",
                                 transition, latency)
                    mem._emit_invals(obs, entry, line_no, cid)
                if latency:
                    yield latency
                entry.sharers.clear()
                entry.owner = cid
            # locked execution on the owned line
            yield cfg.c_atomic_local
            backing = mem.store_backing
            old = backing.read(addr)
            backing.write(addr, op(old))
        finally:
            entry.res.release()
        stalled = self.sim.now - t0
        core.stall_atomic += stalled
        obs = self.sim.obs
        if obs is not None:
            counters = obs.counters
            counters.atomic(cid, line_no, False, cfg.c_atomic_local)
            if "atomic.exec" in obs.wanted:
                obs.emit("atomic.exec", cid, line_no, None, False, cfg.c_atomic_local)
            counters.stall(line_no, stalled)
            if "atomic.stall" in obs.wanted:
                obs.emit("atomic.stall", cid, stalled, line_no, t0)
        entry.notify()
        return old


def make_atomics(sim: Simulator, cfg: MachineConfig, mesh, mem):
    """Build the executor selected by ``cfg.atomic_at``."""
    if cfg.atomic_at == "controller":
        return ControllerAtomics(sim, cfg, mesh, mem)
    return CacheAtomics(sim, cfg, mesh, mem)
