"""CC-SYNCH (Fatourou & Kallimanis, PPoPP 2012): shared-memory combining.

The paper's state-of-the-art pure-shared-memory baseline.  Threads link
request nodes into a queue with a single SWAP on a shared tail pointer;
the thread at the head acts as combiner, walking the list and executing
up to ``MAX_OPS`` requests before handing the combiner role to the next
waiting thread.

Node layout (one isolated cache line per node):

====== ============================================
word   meaning
====== ============================================
0      opcode of the pending request
1      argument
2      return value
3      wait flag (spin target of the node's owner)
4      completed flag
5      next pointer
====== ============================================

Protocol per ``apply_op`` (each thread owns a recycled spare node):

1. prepare the spare node as the new shared dummy (wait=1, completed=0,
   next=0) and SWAP it into the tail;
2. write the request into the node returned by the SWAP (our ``cur``),
   then publish it by linking ``cur.next`` to the new dummy (fence in
   between on the weakly-ordered TILE-Gx);
3. spin locally on ``cur.wait``;
4. if ``cur.completed``: a combiner did our job -- return ``cur.ret``.
   Otherwise we are the combiner: walk the list executing published
   requests until the dummy or MAX_OPS, then set ``wait=0`` on the node
   we stopped at (combiner handover).

While combining, each served request costs the combiner one RMR to read
the request fields written by their owner and another (partially hidden)
RMR to release the owner's spin -- the same 2-RMR critical path as the
RCL server, which is why Figures 3a/4a show CC-SYNCH and SHM-SERVER
performing almost identically.
"""

from __future__ import annotations

from typing import Any, Dict, Generator, Optional

from repro.core.api import NULL_ARG, OpTable, SyncPrimitive
from repro.machine.machine import Machine, ThreadCtx

__all__ = ["CCSynch"]

_OPCODE = 0
_ARG = 1
_RET = 2
_WAIT = 3
_COMPLETED = 4
_NEXT = 5

#: MAX_OPS value used to emulate a fixed combiner (Figure 4a methodology:
#: "we modified HYBCOMB and CC-SYNCH to have a fixed combiner for the
#: whole run, which is equivalent to setting MAX_OPS = inf")
INFINITE = 1 << 40


class CCSynch(SyncPrimitive):
    """The CC-Synch combining algorithm over coherent shared memory."""

    service_threads = 0
    name = "CC-Synch"
    record_words = _NEXT + 1

    def __init__(self, machine: Machine, optable: OpTable, max_ops: int = 200,
                 fixed_combiner_tid: Optional[int] = None):
        """``fixed_combiner_tid`` enables the Figure 4a measurement mode:
        that thread walks the request list forever ("equivalent to
        setting MAX_OPS = inf", footnote 4) and application threads never
        inherit the combiner role."""
        super().__init__(machine, optable)
        if max_ops < 1:
            raise ValueError("max_ops must be >= 1")
        self.max_ops = max_ops
        self.fixed_combiner_tid = fixed_combiner_tid
        mem = machine.mem
        dummy = self._new_node()
        if fixed_combiner_tid is None:
            # initial dummy: wait=0 so the first arriver combines immediately
            mem.poke(dummy + _WAIT, 0)
        self._initial_dummy = dummy
        self.tail_addr = mem.alloc(1, isolated=True)
        mem.poke(self.tail_addr, dummy)
        # thread-local spare nodes
        self._spare: Dict[int, int] = {}
        #: node address -> tid whose request currently occupies it (pure
        #: Python bookkeeping for observability; never read by the
        #: protocol, costs no simulated cycles)
        self._node_owner: Dict[int, int] = {}
        self._combiner_ctx = None
        if fixed_combiner_tid is not None:
            self.service_threads = 1
            self._combiner_ctx = machine.thread(fixed_combiner_tid)

    def _new_node(self) -> int:
        node = self.machine.mem.alloc(self.machine.cfg.line_words, isolated=True)
        self.machine.mem.poke(node + _WAIT, 1)
        return node

    def _spare_of(self, tid: int) -> int:
        node = self._spare.get(tid)
        if node is None:
            node = self._new_node()
            self._spare[tid] = node
        return node

    def _start(self) -> None:
        if self._combiner_ctx is not None:
            self.machine.spawn(self._combiner_ctx, self._fixed_loop(),
                               name=f"ccsynch-fixed-{self.fixed_combiner_tid}",
                               daemon=True)

    def _fixed_loop(self) -> Generator[Any, Any, None]:
        """Permanent combiner (Figure 4a): walk the list forever."""
        ctx = self._combiner_ctx
        self._take_combiner_role(ctx)
        execute = self.optable.execute
        tmp = self._initial_dummy
        while True:
            nxt = yield from ctx.spin_until(tmp + _NEXT, lambda v: v != 0)
            svc_start = ctx.sim.now
            op = yield from ctx.load(tmp + _OPCODE)
            a = yield from ctx.load(tmp + _ARG)
            obs = ctx.sim.obs
            client = self._node_owner.get(tmp)
            ret = yield from execute(ctx, op, a)
            yield from ctx.store(tmp + _RET, ret)
            yield from ctx.store(tmp + _COMPLETED, 1)
            yield from ctx.store(tmp + _WAIT, 0)
            if obs is not None:
                self.record_service(obs, ctx, client, svc_start)
            tmp = nxt

    def apply_op(self, ctx: ThreadCtx, opcode: int, arg: int = NULL_ARG,
                 timeout: Optional[int] = None) -> Generator[Any, Any, int]:
        # ``timeout`` is ignored: one wait-free SWAP/FAA commits the op,
        # so there is no pre-commit window to abandon
        mynode = self._spare_of(ctx.tid)
        # 1. prepare the new dummy and enter the queue
        yield from ctx.store(mynode + _WAIT, 1)
        yield from ctx.store(mynode + _COMPLETED, 0)
        yield from ctx.store(mynode + _NEXT, 0)
        cur = yield from ctx.swap(self.tail_addr, mynode)
        if ctx.sim.policy is not None:
            # exploration seam: between the SWAP and the link store the
            # node is enqueued but unpublished (combiners see next == 0)
            yield from ctx.sched_point("ccsynch.publish")
        # 2. write our request into cur and publish it.  All three stores
        # hit the same cache line, so the merging store buffer keeps them
        # ordered and no fence is needed before the link becomes visible.
        yield from ctx.store(cur + _OPCODE, opcode)
        yield from ctx.store(cur + _ARG, arg)
        yield from ctx.store(cur + _NEXT, mynode)
        self._spare[ctx.tid] = cur
        self._node_owner[cur] = ctx.tid
        # 3. local spin
        yield from ctx.spin_until(cur + _WAIT, lambda v: v == 0)
        done = yield from ctx.load(cur + _COMPLETED)
        if done:
            retval = yield from ctx.load(cur + _RET)
            return retval
        # 4. we are the combiner
        retval = yield from self._combine(ctx, cur)
        return retval

    def _combine(self, ctx: ThreadCtx, cur: int) -> Generator[Any, Any, int]:
        execute = self.optable.execute
        self._take_combiner_role(ctx)
        self.session_begin(ctx)
        obs = ctx.sim.obs
        own_ret = 0
        tmp = cur
        count = 0
        while count < self.max_ops:
            svc_start = ctx.sim.now
            nxt = yield from ctx.load(tmp + _NEXT)   # RMR: owner wrote the link
            if nxt == 0:
                break
            count += 1
            op = yield from ctx.load(tmp + _OPCODE)
            a = yield from ctx.load(tmp + _ARG)
            # overlap the fetch of the next request with this CS (the
            # same software pipelining the RCL-style server uses)
            yield from ctx.prefetch(nxt + _OPCODE)
            ret = yield from execute(ctx, op, a)
            if tmp == cur:
                own_ret = ret
            else:
                # ret / completed / wait share the node's line; the
                # merging store buffer keeps them ordered without a fence
                yield from ctx.store(tmp + _RET, ret)
                yield from ctx.store(tmp + _COMPLETED, 1)
            yield from ctx.store(tmp + _WAIT, 0)
            if obs is not None:
                self.record_service(obs, ctx, self._node_owner.get(tmp),
                                    svc_start)
            tmp = nxt
        if ctx.sim.policy is not None:
            # exploration seam: combiner handover window
            yield from ctx.sched_point("ccsynch.handoff")
        # handover: release whoever owns the node we stopped at
        yield from ctx.store(tmp + _WAIT, 0)
        self.record_session(count)
        return own_ret
