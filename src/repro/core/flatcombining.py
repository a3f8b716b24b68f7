"""FLAT COMBINING (Hendler, Incze, Shavit, Tzafrir [13]).

The paper's combining lineage runs Oyama [24] -> flat combining [13] ->
CC-SYNCH [11]; the evaluation uses CC-SYNCH as the strongest
shared-memory representative.  We provide flat combining as an
*additional baseline* so the lineage can be compared on the same
simulated machine (see ``benchmarks/test_bench_ablations.py``).

Structure (faithful to the original, minus record aging/cleanup, which
only matters for workloads where threads come and go):

* a global TTAS *combiner lock*;
* a *publication list*: per-thread records threads enlist into once
  (CAS on the list head) and then reuse;
* to apply an operation, a thread publishes it in its record
  (request + ``active`` flag), then alternates between spinning on its
  ``done`` flag and trying the combiner lock;
* whoever holds the lock scans the publication list ``scan_rounds``
  times, executing every active request it finds (reading the request
  is the familiar RMR; writing the response another).

Compared to CC-SYNCH the combiner revisits *every enlisted record* per
scan (not just pending ones), so sparse activity costs scan overhead --
one of the reasons CC-SYNCH superseded it.

Record layout (one isolated line): word 0 = active, 1 = opcode,
2 = arg, 3 = retval, 4 = done, 5 = next record.
"""

from __future__ import annotations

from typing import Any, Dict, Generator, Optional

from repro.core.api import NULL_ARG, OpTable, SyncPrimitive
from repro.machine.machine import Machine, ThreadCtx

__all__ = ["FlatCombining"]

_ACTIVE = 0
_OPCODE = 1
_ARG = 2
_RET = 3
_DONE = 4
_NEXT = 5


class FlatCombining(SyncPrimitive):
    """The flat-combining universal construction."""

    service_threads = 0
    name = "flat-combining"
    record_words = _NEXT + 1

    def __init__(self, machine: Machine, optable: OpTable, scan_rounds: int = 2):
        super().__init__(machine, optable)
        if scan_rounds < 1:
            raise ValueError("scan_rounds must be >= 1")
        self.scan_rounds = scan_rounds
        mem = machine.mem
        self.lock_addr = mem.alloc(1, isolated=True)
        self.head_addr = mem.alloc(1, isolated=True)
        self._record: Dict[int, int] = {}

    def _record_of(self, ctx: ThreadCtx) -> Generator[Any, Any, int]:
        """Get (or enlist) this thread's publication record."""
        rec = self._record.get(ctx.tid)
        if rec is not None:
            return rec
        mem = self.machine.mem
        rec = mem.alloc(self.machine.cfg.line_words, isolated=True)
        self._record[ctx.tid] = rec
        # enlist at the head of the publication list (lock-free push)
        while True:
            head = yield from ctx.load(self.head_addr)
            yield from ctx.store(rec + _NEXT, head)
            yield from ctx.fence()  # record must be initialized before linking
            ok = yield from ctx.cas(self.head_addr, head, rec)
            if ok:
                return rec

    def apply_op(self, ctx: ThreadCtx, opcode: int, arg: int = NULL_ARG,
                 timeout: Optional[int] = None) -> Generator[Any, Any, int]:
        # ``timeout`` is ignored (see SyncPrimitive.apply_op)
        rec = yield from self._record_of(ctx)
        # publish the request (same-line stores: buffer keeps them ordered)
        yield from ctx.store(rec + _OPCODE, opcode)
        yield from ctx.store(rec + _ARG, arg)
        yield from ctx.store(rec + _DONE, 0)
        yield from ctx.store(rec + _ACTIVE, 1)
        while True:
            if ctx.sim.policy is not None:
                # exploration seam: the done-check / lock-try alternation
                # races the current combiner's scan
                yield from ctx.sched_point("flatcombining.poll")
            # is someone already combining?  spin a bit on our flag
            done = yield from ctx.load(rec + _DONE)
            if done:
                break
            lock = yield from ctx.load(self.lock_addr)
            if lock == 0:
                ok = yield from ctx.cas(self.lock_addr, 0, 1)
                if ok:
                    yield from self._combine(ctx)
                    yield from ctx.fence()
                    if ctx.sim.policy is not None:
                        # exploration seam: combiner-lock release window
                        yield from ctx.sched_point("flatcombining.unlock")
                    yield from ctx.store(self.lock_addr, 0)
                    # our own request was served during our combine
                    break
            else:
                # lock taken: spin briefly, then re-check both our flag
                # and the lock (the current combiner may have missed our
                # freshly-published record, so waiting on the flag alone
                # could hang -- the original FC also re-tries the lock)
                yield from ctx.work(15)
        retval = yield from ctx.load(rec + _RET)
        return retval

    def _combine(self, ctx: ThreadCtx) -> Generator[Any, Any, None]:
        self._take_combiner_role(ctx)
        execute = self.optable.execute
        served = 0
        for _round in range(self.scan_rounds):
            rec = yield from ctx.load(self.head_addr)
            while rec != 0:
                active = yield from ctx.load(rec + _ACTIVE)
                if active:
                    op = yield from ctx.load(rec + _OPCODE)
                    a = yield from ctx.load(rec + _ARG)
                    ret = yield from execute(ctx, op, a)
                    yield from ctx.store(rec + _RET, ret)
                    yield from ctx.store(rec + _ACTIVE, 0)
                    yield from ctx.store(rec + _DONE, 1)
                    served += 1
                rec = yield from ctx.load(rec + _NEXT)
        self.record_session(served)
