"""The User Dynamic Network: per-core hardware message queues.

Semantics follow Sections 2 and 5.1 of the paper precisely:

* Each core owns a hardware message buffer of ``udn_buffer_words`` 64-bit
  words (118 on the TILE-Gx), 4-way demultiplexed into independent FIFO
  queues, so up to four threads can share a core and still have an
  exclusive queue (oversubscription, Section 6).
* ``send(dst, words)`` is **asynchronous**: the sender pays only a small
  injection cost and continues; the words appear in the destination
  queue after the mesh transit delay, *in order* (``v1 .. vn``).
  Messages between the same (src, dst) pair never reorder.
* Messages are never dropped.  If the destination buffer is full the
  message backs up into the network and **the sender blocks** until
  space frees (Section 5.1 / Section 6).  We model this by reserving
  destination buffer space at send time; an unavailable reservation
  queues the sender on a strict-FIFO per-destination-core reservation
  list, so buffer space is granted in arrival order (a late sender can
  never barge past an earlier blocked one).
* ``receive(k)`` blocks until ``k`` words are available in the caller's
  own queue and returns them; popping a non-empty local queue costs a
  couple of cycles and **no coherence stalls** -- this locality is the
  core of the paper's performance argument.
* ``is_queue_empty()`` is a cheap local probe.

Robustness extensions (fault-injection layer):

* ``send`` and ``receive`` accept ``timeout=`` (cycles).  A timed
  operation that cannot complete in time raises :class:`SendTimeout` /
  :class:`ReceiveTimeout` without side effects (no space reserved, no
  words popped).  The timers are built on generation-guarded interrupts
  (:class:`~repro.sim.engine.WaitTimer`), so a timeout racing a
  same-cycle message arrival deterministically loses to the arrival.
* ``transit_jitter`` (installed by :class:`repro.faults.FaultInjector`)
  adds bounded, seeded jitter to per-message transit delays.

Endpoints are *thread ids*; the fabric keeps the tid -> (core, demux
queue) registration, mirroring the TILE-Gx requirement that a thread be
pinned and registered to use the UDN.

The host-side path: ``register`` resolves each tid once into an
*endpoint table* row (core, demux, queue, core buffer, mesh node), so
every operation does one dict lookup; and a message is one *delivery
entry* (:class:`_Delivery`), created once its buffer space is held and
scheduled for its arrival cycle as its own engine entry.  A core's
reserved buffer words thus always equal its queued words plus the words
of the entries bound for it (tests/test_udn_conservation.py).
"""

from __future__ import annotations

from collections import deque
from operator import attrgetter
from typing import (Any, Callable, ClassVar, Deque, Dict, Generator, List,
                    Optional, Sequence, Tuple)

from repro.machine.config import MachineConfig
from repro.machine.core import Core
from repro.noc.topology import Mesh
from repro.obs.counters import (
    BACKPRESSURE_CYCLES,
    PAIR_DELIVERED,
    PAIR_DELIVERED_WORDS,
    PAIR_LATENCY,
    PAIR_QUEUE,
    PAIR_SENT,
    PAIR_SENT_WORDS,
    PAIR_SLOTS,
    UDN_WAIT_CYCLES,
    UDN_WORDS_RECEIVED,
)
from repro.sim._engine_core import _HANDLED
from repro.sim.engine import Event, Interrupt, Simulator, WaitTimer
from repro.sim.resources import NO_WAITERS, Condition

__all__ = ["UdnFabric", "UdnTimeout", "SendTimeout", "ReceiveTimeout"]


class UdnTimeout(Exception):
    """Base class of timed-operation expiries; ``waited`` is in cycles."""

    def __init__(self, message: str, waited: int):
        super().__init__(message)
        self.waited = waited


class SendTimeout(UdnTimeout):
    """A timed ``send`` could not reserve destination buffer space in time."""


class ReceiveTimeout(UdnTimeout):
    """A timed ``receive`` did not see enough words arrive in time."""


class _CoreBuffer:
    """The hardware message buffer of one core (shared by its demux queues).

    Space is granted to blocked senders in strict FIFO order: a
    reservation that cannot be satisfied immediately joins ``_waiters``
    and all later reservations queue behind it, even if they are smaller
    than the currently free space.
    """

    __slots__ = ("sim", "free_words", "core", "_waiters")

    def __init__(self, sim: Simulator, capacity: int, core: int):
        self.sim = sim
        self.free_words = capacity
        self.core = core
        # each entry: [event, words_needed, granted?]; the deque is built
        # when the first sender blocks (most buffers never see one)
        self._waiters: "Deque[list] | Tuple[()]" = NO_WAITERS

    def reserve(self, n: int) -> Generator[Any, Any, None]:
        """Acquire ``n`` words of buffer space, FIFO among blocked senders."""
        if not self._waiters and self.free_words >= n:
            self.free_words -= n
            return
        # the label is formatted only here, when a sender blocks
        entry = [Event(self.sim, label=f"udn buffer space of core {self.core}"),
                 n, False]
        if self._waiters is NO_WAITERS:
            self._waiters = deque()
        self._waiters.append(entry)
        try:
            yield entry[0]
        except BaseException:
            # Interrupted (timeout / fault) while queued: withdraw without
            # side effects; if the grant already happened, give it back.
            if entry[2]:
                self.release(n)
            else:
                self._waiters.remove(entry)
            raise

    def release(self, k: int) -> None:
        """Return ``k`` words and hand freed space to queued senders in order."""
        self.free_words += k
        while self._waiters and self._waiters[0][1] <= self.free_words:
            entry = self._waiters.popleft()
            self.free_words -= entry[1]
            entry[2] = True
            entry[0].trigger()


class _Queue:
    """One demultiplexed FIFO of 64-bit words."""

    __slots__ = ("words", "arrival_cond")

    def __init__(self, sim: Simulator, label: str):
        self.words: Deque[int] = deque()
        self.arrival_cond = Condition(sim, label=label)


#: one endpoint-table row: (core id, demux, queue, core buffer, mesh node)
_Endpoint = Tuple[int, int, _Queue, _CoreBuffer, int]

_free_words = attrgetter("free_words")


class _Delivery:
    """One message, from its buffer reservation to its arrival: an engine
    entry (always live, and pinned under schedule exploration like a
    plain callback) whose ``_send`` hook delivers it.  On a contended
    mesh the packet's background task carries it instead, and
    :meth:`_arrive` delivers it at the end of the packet's transit."""

    pinned: ClassVar[bool] = True
    _bare: ClassVar[bool] = True
    _slow: ClassVar[bool] = False
    _val: ClassVar[None] = None

    __slots__ = ("fabric", "queue", "src_core", "dst_core", "demux", "msg_id",
                 "n_words", "payload", "sent_at")

    def __init__(self, fabric: "UdnFabric", queue: _Queue, src_core: int,
                 dst_core: int, demux: int, msg_id: int, n_words: int):
        self.fabric = fabric
        self.queue = queue
        self.src_core = src_core
        self.dst_core = dst_core
        self.demux = demux
        self.msg_id = msg_id
        self.n_words = n_words
        #: set by ``send`` once the injection has finished
        self.payload: Sequence[int] = ()
        self.sent_at = 0

    def _send(self, _val: Any) -> Any:
        fabric = self.fabric
        sim = fabric.sim
        sim._current = None  # no process is being stepped
        q = self.queue
        q.words.extend(self.payload)
        fabric.messages_delivered += 1
        obs = sim.obs
        if obs is not None:
            latency = sim.now - self.sent_at
            counters = obs.counters
            counters.latency_hist[latency.bit_length()] += 1
            # the pair's row; a message sent before observability was
            # enabled opens it here
            key = (self.src_core, self.dst_core)
            pair = counters.pair.get(key)
            if pair is None:
                pair = counters.pair[key] = [0] * len(PAIR_SLOTS)
            pair[PAIR_DELIVERED] += 1
            pair[PAIR_DELIVERED_WORDS] += self.n_words
            pair[PAIR_LATENCY] += latency
            if "udn.deliver" in obs.wanted:
                obs.emit("udn.deliver", self.dst_core, self.demux,
                         self.n_words, latency, self.msg_id)
        cond = q.arrival_cond
        if cond._waiters:
            cond.notify_all()
        return _HANDLED

    def _arrive(self, src_node: int, dst_node: int,
                cycles: int) -> Generator[Any, Any, None]:
        """A contended packet's last step, once its ``cycles`` of mesh
        transit are done: fault jitter, then delivery, then the pair's
        link queueing: its transit beyond the idle mesh's."""
        fabric = self.fabric
        jitter = fabric.transit_jitter
        if jitter is not None:
            extra = int(jitter(src_node, dst_node, self.n_words))
            if extra:
                yield extra
        self._send(None)
        obs = fabric.sim.obs
        if obs is not None:
            obs.counters.pair[(self.src_core, self.dst_core)][PAIR_QUEUE] += (
                cycles - fabric.mesh.latency(src_node, dst_node, self.n_words))


class UdnFabric:
    """All hardware message queues of the chip plus the transit network."""

    def __init__(self, sim: Simulator, cfg: MachineConfig, mesh: Mesh, cores: List[Core],
                 contended_mesh=None):
        if not cfg.has_udn:
            raise ValueError(f"machine profile {cfg.name!r} has no hardware message passing")
        self.sim = sim
        self.cfg = cfg
        self.mesh = mesh
        self.cores = cores
        self.contended = contended_mesh  # optional ContendedMesh
        # hot-path constants: a MachineConfig is never mutated once its
        # Machine is built, and cores never move between nodes
        self._buffer_words = cfg.udn_buffer_words
        self._send_base, self._send_per_word = cfg.udn_send_base, cfg.udn_send_per_word
        self._recv_base, self._recv_per_word = cfg.udn_recv_base, cfg.udn_recv_per_word
        self._probe_cost = cfg.udn_probe_cost
        self._noc_base, self._noc_per_hop = mesh.base, mesh.per_hop
        self._noc_per_word, self._xs, self._ys = mesh.per_word, mesh.xs, mesh.ys
        self._buffers = [_CoreBuffer(sim, cfg.udn_buffer_words, c.cid) for c in cores]
        #: (core, demux) -> its FIFO, built when a thread first registers
        #: there: host memory follows the endpoints a run uses, not the
        #: ``udn_demux_queues`` x cores the hardware provides
        self._queues: Dict[Tuple[int, int], _Queue] = {}
        # thread id -> its resolved endpoint, and (core, demux) -> owner tid
        self._endpoints: Dict[int, _Endpoint] = {}
        self._owners: Dict[Tuple[int, int], int] = {}
        #: monotonically increasing message id (tags ``udn.send`` /
        #: ``udn.deliver`` events so the causal tracer can match a send to
        #: its delivery -- pure observability, never read by protocols)
        self._next_msg_id = 0
        #: total messages delivered (stats)
        self.messages_delivered = 0
        #: cycles each *sender core* spent blocked on backpressure,
        #: indexed by core id.  Overload blame attribution needs to name
        #: the congested sender, not just know that congestion existed;
        #: the machine-global aggregate survives as the
        #: :attr:`backpressure_cycles` property.
        self.backpressure_by_core: List[int] = [0] * len(cores)
        #: optional per-message transit-delay jitter (src_node, dst_node,
        #: n_words) -> extra cycles; installed by the fault injector
        self.transit_jitter: Optional[Callable[[int, int, int], int]] = None
        #: exploration seam bookkeeping: last scheduled arrival cycle per
        #: (src_node, dst_core, demux) stream.  Policy-chosen extra delays
        #: are clamped so a message never arrives before an earlier one of
        #: the same stream -- the per-pair FIFO guarantee survives any
        #: policy (used only when ``sim.policy`` is installed).
        self._policy_last_arrival: Dict[Tuple[int, int, int], int] = {}

    @property
    def backpressure_cycles(self) -> int:
        """Total cycles all senders spent blocked on backpressure.

        Aggregate view of :attr:`backpressure_by_core`, kept for
        backward compatibility with pre-existing stats consumers.
        """
        return sum(self.backpressure_by_core)

    def buffer_occupancy_words(self) -> int:
        """Words currently occupying (or reserved in) receive buffers.

        The UDN-occupancy telemetry gauge: buffer space is reserved at
        send time and released as words are popped, so this is the
        chip-wide count of message words in flight or waiting to be
        received.  O(cores) arithmetic, no queue walking.
        """
        bufs = self._buffers
        return self._buffer_words * len(bufs) - sum(map(_free_words, bufs))

    # -- registration -------------------------------------------------------
    def register(self, tid: int, core_id: int, demux: int = 0) -> None:
        """Pin thread ``tid``'s receive endpoint to (core, demux queue);
        a move, like :meth:`unregister`, needs the old queue drained."""
        if not (0 <= core_id < len(self.cores)):
            raise ValueError(f"no core {core_id}")
        if not (0 <= demux < self.cfg.udn_demux_queues):
            raise ValueError(f"demux queue {demux} out of range")
        key = (core_id, demux)
        other_tid = self._owners.get(key, tid)
        if other_tid != tid:
            raise ValueError(f"queue ({core_id},{demux}) already registered to thread {other_tid}")
        old = self._endpoints.get(tid)
        if old is not None:
            if old[0] == core_id and old[1] == demux:
                return
            self._check_drained(tid, old, "moving")
            del self._owners[(old[0], old[1])]
        queue = self._queues.get(key)
        if queue is None:
            queue = self._queues[key] = _Queue(
                self.sim, label=f"udn message arrival at core {core_id} queue {demux}")
        self._endpoints[tid] = (core_id, demux, queue,
                                self._buffers[core_id], self.cores[core_id].node)
        self._owners[key] = tid

    def unregister(self, tid: int) -> None:
        ep = self._lookup(tid)
        self._check_drained(tid, ep, "unregistering")
        del self._endpoints[tid]
        del self._owners[(ep[0], ep[1])]

    @staticmethod
    def _check_drained(tid: int, ep: _Endpoint, verb: str) -> None:
        words = ep[2].words
        if words:
            raise RuntimeError(f"thread {tid} {verb} with {len(words)} words pending")

    def _lookup(self, tid: int) -> _Endpoint:
        ep = self._endpoints.get(tid)
        if ep is None:
            raise KeyError(f"thread {tid} is not registered with the UDN")
        return ep

    def endpoint(self, tid: int) -> Tuple[int, int]:
        ep = self._lookup(tid)
        return ep[0], ep[1]

    def queue_depth(self, tid: int) -> int:
        """Words currently queued for ``tid`` (test/debug hook)."""
        return len(self._lookup(tid)[2].words)

    # -- operations ----------------------------------------------------------
    def send(self, core: Core, dst_tid: int, words: Sequence[int],
             timeout: Optional[int] = None) -> Generator[Any, Any, None]:
        """Asynchronous send of ``words`` to thread ``dst_tid``.

        Returns as soon as the message is injected; blocks only when the
        destination buffer has no room (backpressure).  With ``timeout``
        given, raises :class:`SendTimeout` if buffer space cannot be
        reserved within that many cycles (nothing is sent and no space
        is held).
        """
        if not words:
            raise ValueError("empty message")
        n = len(words)
        ep = self._endpoints.get(dst_tid) or self._lookup(dst_tid)
        dst_core_id, demux, queue, buf, dst_node = ep
        if n > self._buffer_words:
            raise ValueError(
                f"{n}-word message can never fit a {self._buffer_words}-word buffer (deadlock)"
            )
        sim = self.sim
        # Reserve space; block while the buffer is full (messages back up
        # into the network and stall the sender).  FIFO among senders.
        t0 = sim.now
        if timeout is None:
            if buf._waiters or buf.free_words < n:
                yield from buf.reserve(n)
            else:
                buf.free_words -= n
        else:
            if timeout < 1:
                raise ValueError("timeout must be >= 1 cycle")
            timer = WaitTimer(sim, sim.current, sim.now + timeout)
            try:
                yield from buf.reserve(n)
            except Interrupt as exc:
                if exc.cause is timer:
                    waited = sim.now - t0
                    core.wait += waited
                    self.backpressure_by_core[core.cid] += waited
                    obs = sim.obs
                    if obs is not None:
                        obs.counters.global_["udn_timeouts"] += 1
                        if "udn.timeout" in obs.wanted:
                            obs.emit("udn.timeout", core.cid, "send", waited)
                    raise SendTimeout(
                        f"send of {n} words to thread {dst_tid} timed out after "
                        f"{waited} cycles of backpressure", waited
                    ) from None
                raise
            finally:
                timer.disarm()
        blocked = sim.now - t0
        if blocked:
            core.wait += blocked
            self.backpressure_by_core[core.cid] += blocked
        msg_id = self._next_msg_id
        self._next_msg_id = msg_id + 1
        entry = _Delivery(self, queue, core.cid, dst_core_id, demux, msg_id, n)
        obs = sim.obs
        if obs is not None:
            counters = obs.counters
            if blocked:
                counters.core[core.cid][BACKPRESSURE_CYCLES] += blocked
                counters.global_["backpressure_events"] += 1
                if "udn.backpressure" in obs.wanted:
                    obs.emit("udn.backpressure", core.cid, blocked, dst_core_id, t0)
            key = (core.cid, dst_core_id)
            pair = counters.pair.get(key)
            if pair is None:
                pair = counters.pair[key] = [0] * len(PAIR_SLOTS)
            pair[PAIR_SENT] += 1
            pair[PAIR_SENT_WORDS] += n
            if "udn.send" in obs.wanted:
                obs.emit("udn.send", core.cid, dst_tid, dst_core_id, n, msg_id)
        inject = self._send_base + self._send_per_word * n
        core.busy += inject
        core.msgs_sent += 1
        yield inject

        entry.payload = list(words)
        entry.sent_at = sent_at = sim.now
        src = core.node
        if self.contended is not None:
            # the packet is a background task, hop by hop to its arrival
            sim.start(self.contended.transit(src, dst_node, n, msg_id,
                                             entry._arrive))
            return
        xs, ys = self._xs, self._ys  # Mesh.latency, inline
        transit = (self._noc_base + self._noc_per_word * (n - 1) + self._noc_per_hop
                   * (abs(xs[src] - xs[dst_node]) + abs(ys[src] - ys[dst_node])))
        if self.transit_jitter is not None:
            transit += int(self.transit_jitter(src, dst_node, n))
        policy = sim.policy
        if policy is not None:
            # exploration seam: the policy may stretch this message's
            # transit, reordering deliveries *across* streams while the
            # clamp below keeps each (src, dst-queue) stream FIFO --
            # exactly the reorderings real mesh contention can produce.
            extra = int(policy.udn_delay(src, dst_core_id, demux, n, sent_at))
            key = (src, dst_core_id, demux)
            arrive = sent_at + transit + extra
            prev = self._policy_last_arrival.get(key, 0)
            if arrive < prev:
                arrive = prev
            self._policy_last_arrival[key] = arrive
            transit = arrive - sent_at
        sim._queue(entry, sent_at + transit)

    def receive(self, core: Core, tid: int, k: int = 1,
                timeout: Optional[int] = None) -> Generator[Any, Any, List[int]]:
        """Blocking receive of ``k`` words from ``tid``'s own queue.

        Time spent blocked on an empty queue is ``wait`` (idle), not
        stall; draining a non-empty queue costs a few busy cycles per
        word and touches no shared memory.  With ``timeout`` given,
        raises :class:`ReceiveTimeout` if fewer than ``k`` words are
        available after that many cycles (no words are consumed).  A
        message arriving in the very cycle the timeout expires wins.
        """
        if k < 1:
            raise ValueError("must receive at least one word")
        ep = self._endpoints.get(tid) or self._lookup(tid)
        q = ep[2]
        words = q.words
        sim = self.sim
        t0 = sim.now
        if timeout is None:
            while len(words) < k:
                yield q.arrival_cond.arm()
        else:
            if timeout < 1:
                raise ValueError("timeout must be >= 1 cycle")
            timer = WaitTimer(sim, sim.current, sim.now + timeout)
            try:
                while len(words) < k:
                    yield q.arrival_cond.arm()
            except Interrupt as exc:
                if exc.cause is timer:
                    waited = sim.now - t0
                    core.wait += waited
                    obs = sim.obs
                    if obs is not None:
                        obs.counters.global_["udn_timeouts"] += 1
                        if "udn.timeout" in obs.wanted:
                            obs.emit("udn.timeout", core.cid, "receive", waited)
                    raise ReceiveTimeout(
                        f"receive of {k} words by thread {tid} timed out after "
                        f"{waited} cycles ({len(words)} words queued)", waited
                    ) from None
                raise
            finally:
                timer.disarm()
        waited = sim.now - t0
        if waited:
            core.wait += waited
        obs = sim.obs
        if obs is not None:
            row = obs.counters.core[core.cid]
            row[UDN_WORDS_RECEIVED] += k
            row[UDN_WAIT_CYCLES] += waited
            if "udn.recv" in obs.wanted:
                obs.emit("udn.recv", core.cid, tid, k, waited, t0)
        cost = self._recv_base + self._recv_per_word * k
        core.busy += cost
        core.msgs_received += 1
        yield cost
        pop = words.popleft
        if k == 1:
            out = [pop()]
        else:
            out = [pop() for _ in range(k)]
        # space frees at the *core buffer* of the receiving endpoint and is
        # handed to blocked senders in FIFO order
        buf = ep[3]
        if buf._waiters:
            buf.release(k)
        else:
            buf.free_words += k
        return out

    def is_queue_empty(self, core: Core, tid: int) -> Generator[Any, Any, bool]:
        """Local probe of ``tid``'s queue (cheap, no blocking)."""
        cost = self._probe_cost
        core.busy += cost
        yield cost
        ep = self._endpoints.get(tid) or self._lookup(tid)
        return not ep[2].words
