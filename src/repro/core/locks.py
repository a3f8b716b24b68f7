"""Classic spin locks over coherent shared memory.

These are the Section 3 background baselines: the test-and-test-and-set
lock, the ticket lock, and the MCS queue lock [19] with its O(1) RMR
local spinning.  The paper's evaluation focuses on the server/combiner
approaches, but the locks are used here (a) to implement lock-based
object variants the paper mentions (e.g. the two CSes of the two-lock
MS-Queue can be guarded by any mutual-exclusion mechanism), (b) in the
test-suite as simple mutual-exclusion references, and (c) in extension
benchmarks contrasting lock handover cost with combining.

Each lock exposes ``acquire(ctx)`` / ``release(ctx)`` generators, plus
an ``execute(ctx, optable, opcode, arg)`` convenience that runs a CS
body under the lock *on the calling thread* (lock-based execution has no
delegation: the data moves to the lock holder, not the other way
around).
"""

from __future__ import annotations

from typing import Any, Dict, Generator

from repro.core.api import NULL_ARG, OpTable, check_record_width
from repro.machine.machine import Machine, ThreadCtx

__all__ = ["TTASLock", "TicketLock", "MCSLock"]


class _LockBase:
    name = "?"
    record_words = 0  #: words of a per-thread queue node

    def __init__(self, machine: Machine):
        check_record_width(machine, self.name, self.record_words)
        self.machine = machine

    def acquire(self, ctx: ThreadCtx) -> Generator[Any, Any, None]:
        raise NotImplementedError

    def release(self, ctx: ThreadCtx) -> Generator[Any, Any, None]:
        raise NotImplementedError

    def execute(self, ctx: ThreadCtx, optable: OpTable, opcode: int,
                arg: int = NULL_ARG) -> Generator[Any, Any, int]:
        """Run a CS body under the lock, on the calling thread."""
        yield from self.acquire(ctx)
        try:
            retval = yield from optable.execute(ctx, opcode, arg)
        finally:
            pass
        yield from self.release(ctx)
        return retval


class TTASLock(_LockBase):
    """Test-and-test-and-set: spin reading, then CAS when free."""

    name = "ttas"

    def __init__(self, machine: Machine):
        super().__init__(machine)
        self.flag = machine.mem.alloc(1, isolated=True)

    def acquire(self, ctx: ThreadCtx) -> Generator[Any, Any, None]:
        while True:
            yield from ctx.spin_until(self.flag, lambda v: v == 0)
            ok = yield from ctx.cas(self.flag, 0, 1)
            if ok:
                return

    def release(self, ctx: ThreadCtx) -> Generator[Any, Any, None]:
        yield from ctx.fence()
        yield from ctx.store(self.flag, 0)


class TicketLock(_LockBase):
    """FIFO ticket lock: FAA a ticket, spin until now-serving matches."""

    name = "ticket"

    def __init__(self, machine: Machine):
        super().__init__(machine)
        self.next_ticket = machine.mem.alloc(1, isolated=True)
        self.now_serving = machine.mem.alloc(1, isolated=True)

    def acquire(self, ctx: ThreadCtx) -> Generator[Any, Any, None]:
        my = yield from ctx.faa(self.next_ticket, 1)
        yield from ctx.spin_until(self.now_serving, lambda v: v == my)

    def release(self, ctx: ThreadCtx) -> Generator[Any, Any, None]:
        yield from ctx.fence()
        serving = yield from ctx.load(self.now_serving)
        yield from ctx.store(self.now_serving, serving + 1)


class MCSLock(_LockBase):
    """The MCS queue lock [19]: O(1) RMRs, purely local spinning.

    Queue-node layout: word 0 = locked flag (spin target), word 1 = next.
    Each thread owns one reusable queue node per lock.
    """

    name = "mcs"
    _LOCKED = 0
    _NEXT = 1
    record_words = _NEXT + 1

    def __init__(self, machine: Machine):
        super().__init__(machine)
        self.tail = machine.mem.alloc(1, isolated=True)
        self._qnode: Dict[int, int] = {}

    def _node_of(self, tid: int) -> int:
        node = self._qnode.get(tid)
        if node is None:
            node = self.machine.mem.alloc(self.machine.cfg.line_words, isolated=True)
            self._qnode[tid] = node
        return node

    def acquire(self, ctx: ThreadCtx) -> Generator[Any, Any, None]:
        node = self._node_of(ctx.tid)
        yield from ctx.store(node + self._NEXT, 0)
        yield from ctx.store(node + self._LOCKED, 1)
        pred = yield from ctx.swap(self.tail, node)
        if pred == 0:
            return  # lock was free
        yield from ctx.store(pred + self._NEXT, node)
        yield from ctx.spin_until(node + self._LOCKED, lambda v: v == 0)

    def release(self, ctx: ThreadCtx) -> Generator[Any, Any, None]:
        node = self._node_of(ctx.tid)
        yield from ctx.fence()
        nxt = yield from ctx.load(node + self._NEXT)
        if nxt == 0:
            # no known successor: try to swing the tail back to free
            ok = yield from ctx.cas(self.tail, node, 0)
            if ok:
                return
            # a successor is linking itself in; wait for the link
            nxt = yield from ctx.spin_until(node + self._NEXT, lambda v: v != 0)
        yield from ctx.store(nxt + self._LOCKED, 0)
