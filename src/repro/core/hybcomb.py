"""HYBCOMB (Section 4.2, Algorithm 1): hybrid combining.

The paper's central contribution: a combining algorithm for *hybrid*
processors.  Hardware message passing carries requests and responses
between clients and the current combiner (so the combiner's critical
path is stall-free, like MP-SERVER's); cache-coherent shared memory
manages *combiner identity* (which would be "complex and probably
inefficient" over pure message passing).

Shared state:

* ``last_registered_combiner`` -- pointer to the node of the last thread
  that registered to combine (the tail of the logical CSqueue);
* ``departed_combiner`` -- pointer to the one extra node (n+1 nodes for n
  threads) left behind by the last combiner to finish;
* per-thread ``Node`` with fields ``thread_id``, ``n_ops`` and
  ``combining_done`` (each node on its own cache line; ``n_ops`` is the
  FAA target every client hits to register a request).

The line numbers in comments refer to Algorithm 1 of the paper.

Invariant checking: with ``machine.cfg.debug_checks`` the implementation
asserts the CSqueue invariants of the proof sketch (one active combiner
at a time -- Proposition 1 -- and that a client blocked at line 14 only
ever receives its 1-word response -- Proposition 2).

Combiner lease (robustness extension)
-------------------------------------
Algorithm 1 is blocking: a combiner that crashes (or is preempted
indefinitely) between registering and setting ``combining_done`` wedges
every client registered with it *and* its successor combiner.  Passing
``lease_cycles`` + ``request_timeout`` adds a lease/takeover protocol:

* each node gains a fourth word, a **lease timestamp** the owning
  combiner refreshes (at registration, per served op, and while waiting
  for its predecessor);
* a successor waiting at lines 19-20 polls ``combining_done`` *and* the
  lease: a predecessor whose lease went stale is presumed crashed and
  the successor **takes over** without waiting for ``done``;
* a client whose response times out checks its combiner's lease; if
  stale it CASes ``last_registered_combiner`` from the dead node to its
  own and becomes the recovery combiner (re-executing its own op at
  line 23); if the CAS loses, someone else recovered -- re-register;
* a combiner draining registered requests (lines 33-37) bounds each
  ``receive`` by ``request_timeout`` so a *client* crash between
  registering and sending cannot wedge the combiner.

Recovery is **at-least-once** for the operations caught in a crash: a
combiner that crashed after executing a request but before responding
leaves the client to retry it.  Workloads needing exactly-once should
use MP-SERVER's sequence-numbered fault-tolerant mode.  With
``lease_cycles=None`` (the default) Algorithm 1 runs verbatim.
"""

from __future__ import annotations

from typing import Any, Dict, Generator, List, Optional, Set, Tuple

from repro.core.api import NULL_ARG, OpTable, SyncPrimitive
from repro.machine.machine import Machine, ThreadCtx
from repro.udn.udn import ReceiveTimeout, SendTimeout

__all__ = ["HybComb"]

_THREAD_ID = 0
_N_OPS = 1
_DONE = 2
_LEASE = 3  # lease heartbeat timestamp (robustness extension)

#: sentinel thread id for the initial extra node (the paper's "bottom")
_NO_THREAD = (1 << 32) - 1

#: MAX_OPS for emulating a fixed combiner (Fig 4a: "equivalent to MAX_OPS = inf")
INFINITE = 1 << 40


class HybComb(SyncPrimitive):
    """Algorithm 1 of the paper, faithfully transcribed."""

    service_threads = 0
    name = "HybComb"
    record_words = _LEASE + 1

    def __init__(self, machine: Machine, optable: OpTable, max_ops: int = 200,
                 fixed_combiner_tid: Optional[int] = None,
                 swap_after_cas_failures: Optional[int] = None,
                 lease_cycles: Optional[int] = None,
                 request_timeout: Optional[int] = None):
        """``fixed_combiner_tid`` enables the Figure 4a measurement mode:
        that thread becomes a permanent combiner ("equivalent to setting
        MAX_OPS = inf", footnote 4) -- its node stays registered and open
        forever and it runs a pure receive/execute/respond loop, so its
        core's counters isolate the servicing critical path.

        ``swap_after_cas_failures`` implements the paper's suggested
        middle ground: "use SWAP only if CAS fails several times".
        After that many consecutive CAS failures within one apply_op, the
        thread registers unconditionally with SWAP -- trading possible
        single-op combining sessions for guaranteed registration progress
        (no starvation through repeated CAS failure).

        ``lease_cycles`` + ``request_timeout`` enable the combiner
        lease/takeover protocol (see module docs); both must be given
        together."""
        super().__init__(machine, optable)
        if max_ops < 1:
            raise ValueError("max_ops must be >= 1")
        if swap_after_cas_failures is not None and swap_after_cas_failures < 1:
            raise ValueError("swap_after_cas_failures must be >= 1")
        if (lease_cycles is None) != (request_timeout is None):
            raise ValueError("lease_cycles and request_timeout enable the "
                             "recovery protocol together; set both or neither")
        if lease_cycles is not None and lease_cycles < 1:
            raise ValueError("lease_cycles must be >= 1")
        self.lease_cycles = lease_cycles
        self.request_timeout = request_timeout
        self._recovery = lease_cycles is not None
        self._lease_poll = max(1, (lease_cycles or 0) // 8)
        self.swap_after_cas_failures = swap_after_cas_failures
        self.swap_registrations = 0  #: SWAP fallbacks taken (stats)
        self.takeovers = 0  #: stale-lease combiner takeovers (stats)
        self.ops_retried = 0  #: client ops retried after a response timeout (stats)
        self.combiner_recv_timeouts = 0  #: serve-loop receives abandoned (stats)
        #: (client_tid, cycles from first timeout to completed op)
        self.recoveries: List[Tuple[int, int]] = []
        self.fixed_combiner_tid = fixed_combiner_tid
        if fixed_combiner_tid is not None:
            max_ops = INFINITE  # registrations must never fail
            self.service_threads = 1
        self.max_ops = max_ops
        mem = machine.mem
        # Line 3: departed_combiner <- Node{_|_, MAX_OPS, true}
        extra = self._new_node(_NO_THREAD, n_ops=max_ops, done=1)
        self.departed_addr = mem.alloc(1, isolated=True)
        mem.poke(self.departed_addr, extra)
        # Line 4: last_registered_combiner <- departed_combiner
        self.lrc_addr = mem.alloc(1, isolated=True)
        mem.poke(self.lrc_addr, extra)
        # Line 5 (per thread): my_node <- Node{id, MAX_OPS, false}
        self._my_node: Dict[int, int] = {}
        # debug: set of threads currently inside the combiner section
        self._active_combiners: Set[int] = set()
        self.requests_sent = 0
        self.self_combined = 0  #: ops executed by their own thread as combiner
        self._combiner_ctx = None
        if fixed_combiner_tid is not None:
            self._combiner_ctx = machine.thread(fixed_combiner_tid)
            node = self._new_node(fixed_combiner_tid, n_ops=0, done=0)
            self._my_node[fixed_combiner_tid] = node
            mem.poke(self.lrc_addr, node)  # permanently registered and open

    # -- recovery metrics ---------------------------------------------------
    @property
    def recovery_stats(self) -> Dict[str, Any]:
        """Recovery counters consumed by :mod:`repro.workload.metrics`."""
        ttr = max((c for _tid, c in self.recoveries), default=None)
        return {
            "ops_retried": self.ops_retried,
            "takeovers": self.takeovers,
            "combiner_recv_timeouts": self.combiner_recv_timeouts,
            "time_to_recovery": ttr,
            "recoveries": list(self.recoveries),
        }

    # -- node management ------------------------------------------------------
    def _new_node(self, tid: int, n_ops: int, done: int) -> int:
        mem = self.machine.mem
        node = mem.alloc(self.machine.cfg.line_words, isolated=True)
        mem.poke(node + _THREAD_ID, tid)
        mem.poke(node + _N_OPS, n_ops)
        mem.poke(node + _DONE, done)
        mem.poke(node + _LEASE, 0)
        return node

    def _node_of(self, tid: int) -> int:
        node = self._my_node.get(tid)
        if node is None:
            node = self._new_node(tid, n_ops=self.max_ops, done=0)
            self._my_node[tid] = node
        return node

    def _start(self) -> None:
        if self._combiner_ctx is not None:
            self.machine.spawn(self._combiner_ctx, self._fixed_loop(),
                               name=f"hybcomb-fixed-{self.fixed_combiner_tid}",
                               daemon=True)

    def _fixed_loop(self) -> Generator[Any, Any, None]:
        """Permanent combiner (Figure 4a): receive / execute / respond."""
        ctx = self._combiner_ctx
        self._take_combiner_role(ctx)
        execute = self.optable.execute
        # with the lease protocol on, heartbeat between requests so idle
        # periods are not mistaken for a crash
        hb_every = None if not self._recovery else max(1, self.lease_cycles // 2)
        while True:
            if hb_every is None:
                sender, fp, farg = yield from ctx.receive(3)
            else:
                yield from ctx.store(self._my_node[ctx.tid] + _LEASE,
                                     self.machine.now)
                try:
                    sender, fp, farg = yield from ctx.receive(3, timeout=hb_every)
                except ReceiveTimeout:
                    continue
            svc_start = self.machine.now
            obs = ctx.sim.obs
            r = yield from execute(ctx, fp, farg)
            yield from ctx.send(sender, [r])
            if obs is not None:
                self.record_service(obs, ctx, sender, svc_start)

    # -- lease helpers ---------------------------------------------------------
    def _heartbeat(self, ctx: ThreadCtx, my_node: int) -> Generator[Any, Any, None]:
        yield from ctx.store(my_node + _LEASE, self.machine.now)

    def _lease_stale(self, ctx: ThreadCtx, node: int) -> Generator[Any, Any, bool]:
        lease = yield from ctx.load(node + _LEASE)
        return self.machine.now - lease > self.lease_cycles

    def _await_predecessor(self, ctx: ThreadCtx, my_node: int,
                           prev: int) -> Generator[Any, Any, None]:
        """Lines 19-20 with lease supervision: wait for ``prev.done``,
        taking over if the predecessor's lease goes stale."""
        if not self._recovery:
            yield from ctx.spin_until(prev + _DONE, lambda v: v == 1)
            return
        while True:
            done = yield from ctx.load(prev + _DONE)
            if done == 1:
                return
            stale = yield from self._lease_stale(ctx, prev)
            if stale:
                # presumed crashed mid-section: its registered clients
                # will recover through their own response timeouts
                prev_tid = yield from ctx.load(prev + _THREAD_ID)
                self._active_combiners.discard(prev_tid)
                self.takeovers += 1
                obs = ctx.sim.obs
                if obs is not None:
                    obs.counters.global_["takeovers"] += 1
                    if "fault.takeover" in obs.wanted:
                        obs.emit("fault.takeover", ctx.core.cid, ctx.tid, self.name)
                return
            yield from self._heartbeat(ctx, my_node)
            yield from ctx.work(self._lease_poll)

    # -- Algorithm 1 -----------------------------------------------------------
    def apply_op(self, ctx: ThreadCtx, opcode: int, arg: int = NULL_ARG,
                 timeout: Optional[int] = None) -> Generator[Any, Any, int]:
        # ``timeout`` is ignored: one wait-free SWAP/FAA commits the op,
        # so there is no pre-commit window to abandon
        tid = ctx.tid
        my_node = self._node_of(tid)
        cas_failures = 0
        first_timeout_at: Optional[int] = None
        # Lines 8-21
        while True:
            if ctx.sim.policy is not None:
                # exploration seam: the lrc read below races registration
                # CASes and combiner handoff
                yield from ctx.sched_point("hybcomb.register")
            # Line 9: last_reg <- last_registered_combiner
            last_reg = yield from ctx.load(self.lrc_addr)
            # Line 11: try to register with the last registered combiner
            old = yield from ctx.faa(last_reg + _N_OPS, 1)
            if old < self.max_ops:
                # Lines 12-14: success -- send request, await response
                combiner_tid = yield from ctx.load(last_reg + _THREAD_ID)
                if self.machine.cfg.debug_checks:
                    assert combiner_tid != _NO_THREAD, "registered with the bottom node"
                became_combiner = False
                try:
                    yield from ctx.send(combiner_tid, [tid, opcode, arg],
                                        timeout=self.request_timeout)
                    self.requests_sent += 1
                    while True:
                        try:
                            words = yield from ctx.receive(
                                1, timeout=self.request_timeout)
                            break
                        except ReceiveTimeout:
                            self.ops_retried += 1
                            obs = ctx.sim.obs
                            if obs is not None:
                                obs.counters.global_["ops_retried"] += 1
                                if "fault.retry" in obs.wanted:
                                    obs.emit("fault.retry", ctx.core.cid, tid,
                                             self.name)
                            if first_timeout_at is None:
                                first_timeout_at = self.machine.now
                            stale = yield from self._lease_stale(ctx, last_reg)
                            if not stale:
                                continue  # combiner alive, just backed up
                            # combiner presumed dead: try to unseat it and
                            # run recovery ourselves (our request died with
                            # it -- re-execute as our own op at line 23)
                            yield from self._heartbeat(ctx, my_node)
                            ok = yield from ctx.cas(self.lrc_addr, last_reg, my_node)
                            if ok:
                                became_combiner = True
                                yield from ctx.store(my_node + _N_OPS, 0)
                                yield from self._await_predecessor(
                                    ctx, my_node, last_reg)
                            raise
                except SendTimeout:
                    self.ops_retried += 1
                    obs = ctx.sim.obs
                    if obs is not None:
                        obs.counters.global_["ops_retried"] += 1
                        if "fault.retry" in obs.wanted:
                            obs.emit("fault.retry", ctx.core.cid, tid, self.name)
                    if first_timeout_at is None:
                        first_timeout_at = self.machine.now
                    continue  # re-read lrc and re-register
                except ReceiveTimeout:
                    if became_combiner:
                        break  # fall through to the combiner section
                    continue  # someone else recovered; re-register
                if self.machine.cfg.debug_checks:
                    # Proposition 2: only the 1-word response can arrive here
                    assert len(words) == 1
                if first_timeout_at is not None:
                    self.recoveries.append(
                        (tid, self.machine.now - first_timeout_at))
                return words[0]
            # Lines 16-21: failure -- try to register as combiner
            if self._recovery:
                yield from self._heartbeat(ctx, my_node)
            if (self.swap_after_cas_failures is not None
                    and cas_failures >= self.swap_after_cas_failures):
                # the suggested middle ground: SWAP always succeeds
                last_reg = yield from ctx.swap(self.lrc_addr, my_node)
                self.swap_registrations += 1
                ok = True
            else:
                ok = yield from ctx.cas(self.lrc_addr, last_reg, my_node)
            if ok:
                # Line 18: open our node for registrations
                yield from ctx.store(my_node + _N_OPS, 0)
                # Lines 19-20: wait for the previous combiner to finish
                yield from self._await_predecessor(ctx, my_node, last_reg)
                break
            cas_failures += 1
        # ---- combiner section (lines 23-43, in mutual exclusion) ----
        if self.machine.cfg.debug_checks:
            self._active_combiners.add(tid)
            assert len(self._active_combiners) == 1, (
                f"mutual exclusion violated: combiners {self._active_combiners}"
            )
        self._take_combiner_role(ctx)
        self.session_begin(ctx)
        execute = self.optable.execute
        if self._recovery:
            yield from self._heartbeat(ctx, my_node)
        obs = ctx.sim.obs
        # Line 23: own operation first
        svc_start = self.machine.now
        retval = yield from execute(ctx, opcode, arg)
        self.self_combined += 1
        if obs is not None:
            self.record_service(obs, ctx, tid, svc_start)
        if ctx.sim.policy is not None:
            # exploration seam: mid-section preemption here is what a
            # stale-lease takeover races against
            yield from ctx.sched_point("hybcomb.combine")
        # Lines 25-28: drain the message queue while it is not empty
        ops_completed = 0
        while True:
            empty = yield from ctx.is_queue_empty()
            if empty:
                break
            sender, fp, farg = yield from ctx.receive(3)
            svc_start = self.machine.now
            r = yield from execute(ctx, fp, farg)
            yield from ctx.send(sender, [r])
            ops_completed += 1
            if obs is not None:
                self.record_service(obs, ctx, sender, svc_start)
            if self._recovery:
                yield from self._heartbeat(ctx, my_node)
        # Lines 29-32: close combining for new requests
        total_ops = yield from ctx.swap(my_node + _N_OPS, self.max_ops)
        if total_ops > self.max_ops:
            total_ops = self.max_ops
        # Lines 33-37: serve the remaining registered requests.  With the
        # lease on, a registered client that crashed before sending must
        # not wedge us: bound the receive and move on.
        while ops_completed < total_ops:
            try:
                sender, fp, farg = yield from ctx.receive(
                    3, timeout=self.request_timeout)
            except ReceiveTimeout:
                self.combiner_recv_timeouts += 1
                ops_completed += 1
                yield from self._heartbeat(ctx, my_node)
                continue
            svc_start = self.machine.now
            r = yield from execute(ctx, fp, farg)
            yield from ctx.send(sender, [r])
            ops_completed += 1
            if obs is not None:
                self.record_service(obs, ctx, sender, svc_start)
            if self._recovery:
                yield from self._heartbeat(ctx, my_node)
        # Lines 38-42: exchange nodes with the departed-combiner slot,
        # then release the next combiner.  (The paper notes the SWAP at
        # line 39 is "only for brevity; an atomic operation is not needed
        # since these lines are executed in mutual exclusion" -- we use
        # the cheap load+store pair accordingly.)
        old_node = my_node
        new_node = yield from ctx.load(self.departed_addr)
        yield from ctx.store(self.departed_addr, old_node)
        self._my_node[tid] = new_node
        yield from ctx.store(new_node + _DONE, 0)        # line 40
        yield from ctx.store(new_node + _THREAD_ID, tid)  # line 41
        yield from ctx.fence()
        if self.machine.cfg.debug_checks:
            self._active_combiners.discard(tid)
        self.record_session(1 + ops_completed)
        if ctx.sim.policy is not None:
            # exploration seam: the node exchange above is published to the
            # successor only by the store below (combiner handoff window)
            yield from ctx.sched_point("hybcomb.handoff")
        yield from ctx.store(old_node + _DONE, 1)        # line 42
        if first_timeout_at is not None:
            self.recoveries.append((tid, self.machine.now - first_timeout_at))
        return retval                                     # line 43
