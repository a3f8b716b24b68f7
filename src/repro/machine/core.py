"""Per-core state and cycle accounting.

Every simulated hardware thread runs pinned to a :class:`Core` (the
evaluation methodology of the paper: thread *i* on core *i*, single
thread per core unless oversubscription is being studied).  The core
keeps the cycle breakdown that Figure 4a is made of:

* ``busy``   -- instructions retiring (CS bodies, protocol bookkeeping,
  local think-time loops, message marshalling);
* ``stall_mem`` / ``stall_atomic`` / ``stall_fence`` -- cycles the core
  is blocked on the coherence protocol, on a memory-controller atomic,
  or draining the store buffer;
* ``wait``   -- blocked on a *message* (empty receive queue) or spinning
  on an unchanged local line: the core is idle, not stalled, which is
  exactly why the message-passing approaches win.

Counters only ever increase; measurement windows subtract snapshots.
"""

from __future__ import annotations

from typing import Dict

__all__ = ["Core"]

#: counter names, in reporting order
COUNTERS = (
    "busy",
    "stall_mem",
    "stall_atomic",
    "stall_fence",
    "wait",
    "rmr",
    "atomic_ops",
    "cas_ops",
    "cas_failures",
    "faa_ops",
    "swap_ops",
    "loads",
    "stores",
    "msgs_sent",
    "msgs_received",
)


class Core:
    """One single-threaded core at mesh node ``node``."""

    __slots__ = ("cid", "node") + COUNTERS

    def __init__(self, cid: int, node: int):
        self.cid = cid
        self.node = node
        for name in COUNTERS:
            setattr(self, name, 0)

    # -- accounting helpers (callers also yield the cycles) ---------------
    def snapshot(self) -> Dict[str, int]:
        """Copy of all counters, for window-based measurements."""
        return {name: getattr(self, name) for name in COUNTERS}

    def delta(self, since: Dict[str, int]) -> Dict[str, int]:
        """Counter increments since a :meth:`snapshot`."""
        return {name: getattr(self, name) - since[name] for name in COUNTERS}

    @property
    def stall_total(self) -> int:
        return self.stall_mem + self.stall_atomic + self.stall_fence

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Core(cid={self.cid}, node={self.node}, busy={self.busy}, stall={self.stall_total})"
