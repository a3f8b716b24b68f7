"""MP-SERVER (Section 4.1): the server approach over hardware messaging.

A dedicated server thread loops on its local hardware message queue:

* requests arrive as 3-word messages ``{client_tid, opcode, arg}``;
* ``receive`` reads from the *local* buffer -- no remote action, no
  stall (Figure 2, in contrast to Figure 1's SHM server);
* the CS body executes on the server core, so CS data stays in the
  server's cache;
* the 1-word response is sent *asynchronously* -- the server never waits
  for the transmission.

Under load the server's critical path is therefore stall-free, which is
the entire performance argument of the paper.

The client side is two lines: send the request, block on the response.
Section 6's deadlock argument holds here by construction: a client has
at most one outstanding request, so its queue holds at most one message,
and a client blocked sending a request (server buffer full) is
equivalent to its normal blocking receive.

Fault tolerance (robustness extension)
--------------------------------------
The paper argues deadlock-freedom only for the healthy case: if the
server thread crashes, every client blocks forever.  Passing
``request_timeout`` (and optionally ``backup_tid``) enables a
fail-over protocol layered on the same message format ideas:

* requests carry a per-client **sequence number** --
  ``{client_tid, seq, opcode, arg}`` -- and responses echo it
  (``{seq, retval}``), so late or duplicated responses are discarded;
* each server records ``(last committed seq, retval)`` per client in a
  shared-memory **dedup table**.  Execution and the table update form an
  atomic commit (a crash shield); a retried request whose sequence
  number was already committed returns the recorded result without
  re-executing -- retries are therefore idempotent;
* clients use timed send/receive: on expiry they back off exponentially
  (bounded), fail over to the backup server, and retry the *same*
  sequence number.  Both servers share the dedup table, so at-most-once
  execution holds across the fail-over.

The protocol assumes fail-stop crashes (a crashed server executes
nothing more).  A server preempted for longer than the client timeout
can, like any lease-free primary/backup scheme, execute a request the
backup also executed -- keep preemption slices shorter than the timeout
(see :mod:`repro.faults`).

With fault tolerance disabled (the default), the legacy 3-word protocol
and its measured behaviour are bit-for-bit unchanged.
"""

from __future__ import annotations

from typing import Any, Dict, Generator, List, Optional, Tuple

from repro.core.api import NULL_ARG, DispatchTimeout, OpTable, SyncPrimitive
from repro.machine.machine import Machine, ThreadCtx
from repro.udn.udn import ReceiveTimeout, SendTimeout

__all__ = ["MPServer", "ServerUnavailable"]

#: legacy request message layout: [client_tid, opcode, arg]
REQUEST_WORDS = 3
#: fault-tolerant request layout: [client_tid, seq, opcode, arg]
FT_REQUEST_WORDS = 4
#: fault-tolerant response layout: [seq, retval]
FT_RESPONSE_WORDS = 2

#: dedup-table slot layout (one cache line per client)
_SLOT_SEQ = 0
_SLOT_RETVAL = 1


class ServerUnavailable(RuntimeError):
    """No configured server responded within the retry budget."""


class MPServer(SyncPrimitive):
    """Mutual-exclusion server over hardware message passing."""

    service_threads = 1
    name = "mp-server"

    def __init__(self, machine: Machine, optable: OpTable, server_tid: int = 0,
                 server_core: Optional[int] = None, nested_tid: Optional[int] = None,
                 backup_tid: Optional[int] = None, backup_core: Optional[int] = None,
                 request_timeout: Optional[int] = None,
                 backoff_base: int = 64, backoff_cap: int = 4096,
                 max_attempts: int = 16):
        """``nested_tid`` enables *nested critical sections* (the RCL
        feature the paper's simplified SHM-SERVER omits): it registers a
        second hardware queue (demux 1) on the server core under that
        thread id, exposed as :attr:`nested_ctx`.  A CS body running on
        this server may then invoke operations on *another* server
        through ``other_prim.apply_op(this_prim.nested_ctx, ...)`` --
        the nested response arrives on the alias queue and never mixes
        with this server's incoming requests.  Nesting must be acyclic
        across servers (A -> B is fine; A -> B -> A deadlocks, exactly
        as on real hardware).

        ``request_timeout`` (cycles) switches to the fault-tolerant
        protocol (see module docs); ``backup_tid``/``backup_core`` add a
        hot-standby server thread clients fail over to.  ``backoff_base``
        / ``backoff_cap`` bound the exponential retry backoff, and
        ``max_attempts`` bounds total attempts per operation before
        :class:`ServerUnavailable` is raised."""
        super().__init__(machine, optable)
        self.server_tid = server_tid
        self.server_ctx = machine.thread(server_tid, core_id=server_core)
        self.nested_ctx = None
        if nested_tid is not None:
            self.nested_ctx = machine.thread(
                nested_tid, core_id=self.server_ctx.core.cid, demux=1
            )
        # -- fault-tolerance configuration --------------------------------
        if backup_tid is not None and request_timeout is None:
            raise ValueError("a backup server requires request_timeout "
                             "(clients fail over on timeout)")
        self.fault_tolerant = request_timeout is not None
        self.request_timeout = request_timeout
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        self.max_attempts = max_attempts
        self.backup_tid = backup_tid
        self.backup_ctx: Optional[ThreadCtx] = None
        self._server_tids = [server_tid]
        if backup_tid is not None:
            self.backup_ctx = machine.thread(backup_tid, core_id=backup_core)
            self._server_tids.append(backup_tid)
            self.service_threads = 2
        # shared-memory dedup table: one line per client, lazily allocated
        self._dedup_slots: Dict[int, int] = {}
        # client-local protocol state (thread-local in a real system)
        self._client_seq: Dict[int, int] = {}
        self._client_server: Dict[int, int] = {}
        #: requests served (stats)
        self.requests_served = 0
        #: retried requests after a timeout (stats)
        self.ops_retried = 0
        #: re-sent requests answered from the dedup table (stats)
        self.duplicates_suppressed = 0
        #: client fail-overs between servers (stats)
        self.failovers = 0
        #: (client_tid, cycles from first timeout to completed op)
        self.recoveries: List[Tuple[int, int]] = []

    # -- recovery metrics ---------------------------------------------------
    @property
    def recovery_stats(self) -> Dict[str, Any]:
        """Recovery counters consumed by :mod:`repro.workload.metrics`."""
        ttr = max((c for _tid, c in self.recoveries), default=None)
        return {
            "ops_retried": self.ops_retried,
            "duplicates_suppressed": self.duplicates_suppressed,
            "failovers": self.failovers,
            "time_to_recovery": ttr,
            "recoveries": list(self.recoveries),
        }

    def _slot_for(self, client_tid: int) -> int:
        slot = self._dedup_slots.get(client_tid)
        if slot is None:
            mem = self.machine.mem
            slot = mem.alloc(self.machine.cfg.line_words, isolated=True)
            mem.poke(slot + _SLOT_SEQ, 0)
            mem.poke(slot + _SLOT_RETVAL, 0)
            self._dedup_slots[client_tid] = slot
        return slot

    def _start(self) -> None:
        loop = self._ft_server_loop if self.fault_tolerant else self._server_loop
        self.machine.spawn(self.server_ctx, loop(self.server_ctx),
                           name=f"mp-server-{self.server_tid}", daemon=True)
        if self.backup_ctx is not None:
            self.machine.spawn(self.backup_ctx, self._ft_server_loop(self.backup_ctx),
                               name=f"mp-server-backup-{self.backup_tid}", daemon=True)

    # -- legacy (fault-free) protocol ---------------------------------------
    def _server_loop(self, ctx: ThreadCtx) -> Generator[Any, Any, None]:
        execute = self.optable.execute
        while True:
            if ctx.sim.policy is not None:
                # exploration seam: server poll -- a delay here backs up
                # client requests in the network
                yield from ctx.sched_point("mp_server.poll")
            sender, opcode, arg = yield from ctx.receive(REQUEST_WORDS)
            svc_start = ctx.sim.now
            obs = ctx.sim.obs
            if obs is not None:
                obs.counters.served(ctx.core.cid)
                if "server.req" in obs.wanted:
                    obs.emit("server.req", ctx.core.cid, sender, self.name)
            retval = yield from execute(ctx, opcode, arg)
            yield from ctx.send(sender, [retval])
            self.requests_served += 1
            if obs is not None:
                obs.counters.service(ctx.core.cid, ctx.sim.now - svc_start)
                if "server.done" in obs.wanted:
                    obs.emit("server.done", ctx.core.cid, sender, self.name, svc_start)

    # -- fault-tolerant protocol --------------------------------------------
    def _ft_server_loop(self, ctx: ThreadCtx) -> Generator[Any, Any, None]:
        proc = self.machine.sim.current
        execute = self.optable.execute
        while True:
            if ctx.sim.policy is not None:
                # exploration seam: server poll (outside the crash shield,
                # so a policy delay can widen the timeout/failover races)
                yield from ctx.sched_point("mp_server.poll")
            sender, seq, opcode, arg = yield from ctx.receive(FT_REQUEST_WORDS)
            svc_start = ctx.sim.now
            obs = ctx.sim.obs
            if obs is not None:
                obs.counters.served(ctx.core.cid)
                if "server.req" in obs.wanted:
                    obs.emit("server.req", ctx.core.cid, sender, self.name)
            slot = self._slot_for(sender)
            last = yield from ctx.load(slot + _SLOT_SEQ)
            if seq <= last:
                # a retry of an op this table already committed: answer
                # from the record, never re-execute (idempotence)
                retval = yield from ctx.load(slot + _SLOT_RETVAL)
                self.duplicates_suppressed += 1
            else:
                # execute + record commit atomically w.r.t. crashes: a
                # fail-stop kill inside the shield lands after the record,
                # so a client retry is either deduped or re-executed from
                # an untouched object -- never half of each
                proc.shield_begin()
                try:
                    retval = yield from execute(ctx, opcode, arg)
                    yield from ctx.store(slot + _SLOT_RETVAL, retval)
                    yield from ctx.store(slot + _SLOT_SEQ, seq)
                finally:
                    proc.shield_end()
            yield from ctx.send(sender, [seq, retval])
            self.requests_served += 1
            if obs is not None:
                obs.counters.service(ctx.core.cid, ctx.sim.now - svc_start)
                if "server.done" in obs.wanted:
                    obs.emit("server.done", ctx.core.cid, sender, self.name, svc_start)

    def apply_op(self, ctx: ThreadCtx, opcode: int, arg: int = NULL_ARG,
                 timeout: Optional[int] = None) -> Generator[Any, Any, int]:
        """Send the request, block on the response.

        ``timeout`` bounds *injection*, not service.  Under overload the
        choke point of MP-SERVER is backpressure on the server's hardware
        buffer -- the send blocks until space frees.  A timed send that
        expires withdraws from the reservation FIFO with zero side
        effects (:class:`~repro.udn.udn.SendTimeout` semantics), so the
        op provably never reached the server and :class:`DispatchTimeout`
        is safe to retry.  Once injected the request *will* be served
        FIFO from a bounded hardware queue, so the response wait stays
        untimed: injection is the commit point.

        The fault-tolerant mode ignores ``timeout`` and keeps its own
        per-attempt timeout / backoff / failover machinery (an FT retry
        may re-send an op that already executed and rely on the dedup
        table instead).
        """
        if self.fault_tolerant:
            return (yield from self._ft_apply_op(ctx, opcode, arg))
        try:
            yield from ctx.send(self.server_tid, [ctx.tid, opcode, arg],
                                timeout=timeout)
        except SendTimeout as exc:
            raise DispatchTimeout(
                f"thread {ctx.tid}: request injection backpressured for "
                f"{exc.waited} cycles (server hardware queue full)",
                exc.waited) from None
        words = yield from ctx.receive(1)
        return words[0]

    def _ft_apply_op(self, ctx: ThreadCtx, opcode: int, arg: int) -> Generator[Any, Any, int]:
        tid = ctx.tid
        seq = self._client_seq.get(tid, 0) + 1
        self._client_seq[tid] = seq
        servers = self._server_tids
        self._client_server.setdefault(tid, 0)
        first_timeout_at: Optional[int] = None
        attempt = 0
        while True:
            target = servers[self._client_server[tid]]
            try:
                yield from ctx.send(target, [tid, seq, opcode, arg],
                                    timeout=self.request_timeout)
                while True:
                    rseq, retval = yield from ctx.receive(
                        FT_RESPONSE_WORDS, timeout=self.request_timeout)
                    if rseq == seq:
                        break
                    # a late response to a superseded attempt: discard
                if first_timeout_at is not None:
                    self.recoveries.append((tid, self.machine.now - first_timeout_at))
                return retval
            except (SendTimeout, ReceiveTimeout):
                attempt += 1
                self.ops_retried += 1
                obs = ctx.sim.obs
                if obs is not None:
                    obs.counters.count("ops_retried")
                    if "fault.retry" in obs.wanted:
                        obs.emit("fault.retry", ctx.core.cid, tid, self.name)
                if first_timeout_at is None:
                    first_timeout_at = self.machine.now
                if attempt >= self.max_attempts:
                    raise ServerUnavailable(
                        f"thread {tid}: op seq {seq} got no response from "
                        f"servers {servers} after {attempt} attempts"
                    ) from None
                if len(servers) > 1:
                    self._client_server[tid] = (
                        self._client_server[tid] + 1) % len(servers)
                    self.failovers += 1
                    if obs is not None:
                        obs.counters.count("failovers")
                        if "fault.failover" in obs.wanted:
                            obs.emit("fault.failover", ctx.core.cid, tid, self.name)
                backoff = min(self.backoff_base << (attempt - 1), self.backoff_cap)
                ctx.core.wait += backoff
                yield backoff

    def servicing_cores(self) -> List[int]:
        cores = [self.server_ctx.core.cid]
        if self.backup_ctx is not None:
            cores.append(self.backup_ctx.core.cid)
        return cores
