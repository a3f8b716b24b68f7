"""SHM-SERVER (Section 3 / Section 5.2): an RCL-style server over shared
memory.

This is the paper's pure-shared-memory server baseline, "a simplified
version of RCL, since it implements the same core mechanism (an array of
cache lines, one for each client), but lacks support for some advanced
features, such as nested critical sections (note that this
simplification does not decrease performance)".

Each client owns one cache line used as a bidirectional channel:

====== ==================================================
word   meaning
====== ==================================================
0      request sequence number (written by the client)
1      opcode
2      argument
3      response sequence number (written by the server)
4      return value
====== ==================================================

Client: write opcode/arg, then bump word 0; spin locally on word 3.
Server: scan all channels round-robin; a channel whose word 0 advanced
carries a fresh request.  Figure 1's cost analysis falls out of the
coherence protocol: the server's read of a freshly-written channel is an
RMR (R(i), dark grey stall), and its response write invalidates the
spinning client's copy (W(i), a second RMR) -- two stalls on the critical
path of every CS, which is exactly what MP-SERVER eliminates.

Overload extension (opt-in, ``cancellable=True``): word 5 becomes a
*claim* word so a client can withdraw a request the server has not
committed to yet.  The client posts ``CLAIM = seq`` with the request;
the server takes ownership with ``CAS(CLAIM, seq, TAKEN+seq)`` before
executing, and a timed-out client withdraws with ``CAS(CLAIM, seq,
GONE+seq)``.  Exactly one of the two CASes can win, so a withdrawn
request provably never executes and a claimed request always completes
-- the linchpin of :class:`~repro.core.api.DispatchTimeout`'s
exactly-once contract.  Because the server CAS expects the *exact*
sequence number it just read, it can never claim a stale request after
the client has moved on to the next one.  The default mode stores and
CASes nothing extra and is cycle-identical to the paper's protocol.
"""

from __future__ import annotations

from typing import Any, Dict, Generator, List, Optional, Sequence

from repro.core.api import DispatchTimeout, NULL_ARG, OpTable, SyncPrimitive
from repro.machine.machine import Machine, ThreadCtx
from repro.sim.engine import Interrupt, WaitTimer

__all__ = ["ShmServer"]

_REQ_SEQ = 0
_OPCODE = 1
_ARG = 2
_RESP_SEQ = 3
_RETVAL = 4
_CLAIM = 5

# claim-word states (offsets keep the original seq visible for debugging)
_TAKEN = 1 << 40   #: CLAIM == _TAKEN + seq: the server owns request seq
_GONE = 1 << 41    #: CLAIM == _GONE + seq: the client withdrew request seq


class ShmServer(SyncPrimitive):
    """Mutual-exclusion server over cache-line channels (RCL-style)."""

    service_threads = 1
    name = "shm-server"

    def __init__(self, machine: Machine, optable: OpTable, server_tid: int = 0,
                 client_tids: Sequence[int] = (), server_core: int | None = None,
                 cancellable: bool = False):
        super().__init__(machine, optable)
        if cancellable and machine.cfg.line_words <= _CLAIM:
            raise ValueError(
                f"cancellable mode needs {_CLAIM + 1} words per channel line, "
                f"but {machine.cfg.name!r} lines hold {machine.cfg.line_words}")
        #: opt-in withdrawable-request protocol (see the module docs);
        #: off by default so the baseline stays cycle-identical
        self.cancellable = cancellable
        #: requests withdrawn by a timed-out client before the server
        #: claimed them (cancellable mode only)
        self.requests_cancelled = 0
        self.server_tid = server_tid
        self.server_ctx = machine.thread(server_tid, core_id=server_core)
        # one isolated cache line per client (the RCL channel array)
        self._channels: Dict[int, int] = {}
        self._client_order: List[int] = []
        for tid in client_tids:
            self.add_client(tid)
        # client-local request sequence numbers (thread-local state)
        self._client_seq: Dict[int, int] = {}
        # server-local record of the last sequence number served per client
        self._served_seq: Dict[int, int] = {}
        self.requests_served = 0
        self._stopped = False

    def add_client(self, tid: int) -> None:
        """Allocate a channel line for client ``tid`` (before start)."""
        if tid in self._channels:
            raise ValueError(f"client {tid} already has a channel")
        self._channels[tid] = self.machine.mem.alloc(
            self.machine.cfg.line_words, isolated=True
        )
        self._client_order.append(tid)

    def stop(self) -> None:
        """Ask the polling server loop to exit (lets the simulation drain)."""
        self._stopped = True

    def _start(self) -> None:
        self.machine.spawn(self.server_ctx, self._server_loop(),
                           name=f"shm-server-{self.server_tid}", daemon=True)

    def _server_loop(self) -> Generator[Any, Any, None]:
        """Round-robin scan of all client channels (the RCL server loop)."""
        ctx = self.server_ctx
        execute = self.optable.execute
        served = self._served_seq
        order = self._client_order
        n = len(order)
        while not self._stopped:
            if ctx.sim.policy is not None:
                # exploration seam: delay the scan so requests pile up and
                # get served in scan order rather than arrival order
                yield from ctx.sched_point("shm_server.scan")
            for i, tid in enumerate(order):
                ch = self._channels[tid]
                svc_start = ctx.sim.now
                seq = yield from ctx.load(ch + _REQ_SEQ)       # R(i): RMR when fresh
                if seq == served.get(tid, 0):
                    continue
                if self.cancellable:
                    # Commit point: own this exact request before running
                    # it.  A failed CAS means the client either withdrew
                    # seq or already posted a newer one -- either way seq
                    # must never execute, so just mark it scanned.
                    taken = yield from ctx.cas(ch + _CLAIM, seq, _TAKEN + seq)
                    if not taken:
                        served[tid] = seq
                        self.requests_cancelled += 1
                        continue
                opcode = yield from ctx.load(ch + _OPCODE)     # same line: hits
                arg = yield from ctx.load(ch + _ARG)
                obs = ctx.sim.obs
                if obs is not None:
                    obs.counters.served(ctx.core.cid)
                    if "server.req" in obs.wanted:
                        obs.emit("server.req", ctx.core.cid, tid, self.name)
                # software-pipeline the next channel read behind this CS
                # (the paper: RMRs "get partially overlapped with the CS
                # execution" -- the O3-compiled server hoists the next
                # channel's load above the critical section)
                if n > 1:
                    nxt = self._channels[order[(i + 1) % n]]
                    yield from ctx.prefetch(nxt + _REQ_SEQ)
                retval = yield from execute(ctx, opcode, arg)
                yield from ctx.store(ch + _RETVAL, retval)     # W(i): invalidates client
                yield from ctx.store(ch + _RESP_SEQ, seq)
                served[tid] = seq
                self.requests_served += 1
                if obs is not None:
                    obs.counters.service(ctx.core.cid, ctx.sim.now - svc_start)
                    if "server.done" in obs.wanted:
                        obs.emit("server.done", ctx.core.cid, tid, self.name, svc_start)
            # loop-closing branch of the scan
            yield from ctx.work(1)

    def apply_op(self, ctx: ThreadCtx, opcode: int, arg: int = NULL_ARG,
                 timeout: Optional[int] = None) -> Generator[Any, Any, int]:
        """Post the request on the caller's channel, spin locally on the
        response.  All the request stores share the channel line, so the
        merging store buffer keeps the sequence bump ordered after the
        payload without a fence.

        In cancellable mode ``timeout`` withdraws the request if the
        server does not claim it within that many cycles; otherwise it
        is ignored.  The deadline bounds the *unclaimed* wait only.  When
        it expires the client races the server for the claim word:
        winning proves the request never executed
        (:class:`DispatchTimeout`); losing means the server committed, so
        the client finishes the spin and returns the (late) result -- the
        op happened, dropping it now would double-execute on retry.
        """
        if not self.cancellable:
            timeout = None
        elif timeout is not None and timeout < 1:
            raise ValueError("timeout must be >= 1 cycle")
        tid = ctx.tid
        ch = self._channels.get(tid)
        if ch is None:
            raise KeyError(f"thread {tid} has no channel; call add_client({tid}) before start")
        seq = self._client_seq.get(tid, 0) + 1
        self._client_seq[tid] = seq
        yield from ctx.store(ch + _OPCODE, opcode)
        yield from ctx.store(ch + _ARG, arg)
        if self.cancellable:
            # arm the claim word before the bump so the server's CAS on
            # it always sees this request's own sequence number
            yield from ctx.store(ch + _CLAIM, seq)
        yield from ctx.store(ch + _REQ_SEQ, seq)
        sim = ctx.sim
        t0 = sim.now
        timer = (WaitTimer(sim, sim.current, t0 + timeout)
                 if timeout is not None else None)
        try:
            # local spin until the server's response sequence catches up
            yield from ctx.spin_until(ch + _RESP_SEQ, lambda v: v == seq)
        except Interrupt as exc:
            if timer is None or exc.cause is not timer:
                raise
            waited = sim.now - t0
            gone = yield from ctx.cas(ch + _CLAIM, seq, _GONE + seq)
            if gone:
                obs = sim.obs
                if obs is not None and "dispatch.timeout" in obs.wanted:
                    obs.emit("dispatch.timeout", ctx.core.cid, ctx.tid,
                             self.name, waited)
                raise DispatchTimeout(
                    f"thread {ctx.tid}: request unclaimed by the server "
                    f"after {waited} cycles", waited) from None
            # lost the race: the server owns the request; see it through
            yield from ctx.spin_until(ch + _RESP_SEQ, lambda v: v == seq)
        finally:
            if timer is not None:
                timer.disarm()
        return (yield from ctx.load(ch + _RETVAL))

    def servicing_cores(self) -> List[int]:
        return [self.server_ctx.core.cid]
