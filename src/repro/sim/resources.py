"""Coordination primitives built on the two-effect engine.

Everything here is a thin composition of :class:`~repro.sim.engine.Event`
waits, so the engine stays agnostic.  These primitives model *hardware*
arbitration points in the machine model:

* :class:`Resource` -- a FIFO server with limited capacity; used for
  memory-controller atomics, per-cache-line directory transactions and
  (in contended-NoC mode) mesh links.
* :class:`Condition` -- a re-armable broadcast wakeup; used for cache-line
  invalidation notifications that wake spinning cores.

The hardware message queues live in :mod:`repro.udn`.
"""

from __future__ import annotations

from collections import deque
from typing import Any, ClassVar, Deque, Generator, List, Optional, Tuple

from repro.sim._engine_core import _HANDLED
from repro.sim.engine import Event, Interrupt, Simulator, WaitTimer

__all__ = ["Resource", "Condition", "NO_WAITERS"]

#: the waiter queue of an arbitration point nobody has blocked on yet:
#: an immutable empty stand-in (``len``, truth tests and iteration work)
#: that the first blocked caller replaces with a real deque, so a
#: machine's thousands of never-contended links, directory lines and
#: UDN buffers hold no deque each
NO_WAITERS: Tuple[()] = ()


class Resource:
    """A FIFO-ordered server with ``capacity`` concurrent slots.

    Usage from a process::

        yield from res.acquire()
        try:
            yield service_time
        finally:
            res.release()

    Fairness is strict FIFO: waiters are granted slots in arrival order,
    which models a hardware arbitration queue.

    A resource is also its own deferred-release scheduler entry
    (:meth:`release_at`): always live, and pinned in place under schedule
    exploration like the plain callback it replaces.
    """

    pinned: ClassVar[bool] = True
    _bare: ClassVar[bool] = True
    _slow: ClassVar[bool] = False
    _val: ClassVar[None] = None

    __slots__ = ("sim", "capacity", "in_use", "_waiters", "total_acquisitions", "total_wait_cycles")

    def __init__(self, sim: Simulator, capacity: int = 1):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.sim = sim
        self.capacity = capacity
        self.in_use = 0
        self._waiters: "Deque[Event] | Tuple[()]" = NO_WAITERS
        #: total number of successful acquisitions (for utilization stats)
        self.total_acquisitions = 0
        #: total cycles processes spent queued for this resource
        self.total_wait_cycles = 0

    @property
    def queue_length(self) -> int:
        return len(self._waiters)

    def try_acquire(self) -> bool:
        """Take a free slot now (no generator); False, with nothing held or
        counted, when the caller must queue: ``yield from res.acquire()``."""
        if self.in_use < self.capacity and not self._waiters:
            self.in_use += 1
            self.total_acquisitions += 1
            return True
        return False

    def acquire(self) -> Generator[Any, Any, None]:
        if self.try_acquire():
            return
        self.total_acquisitions += 1
        ev = Event(self.sim)
        if self._waiters is NO_WAITERS:
            self._waiters = deque()
        self._waiters.append(ev)
        t0 = self.sim.now
        yield ev
        self.total_wait_cycles += self.sim.now - t0
        # the releaser transferred the slot to us; in_use stays balanced

    def acquire_timeout(self, timeout: int) -> Generator[Any, Any, bool]:
        """Acquire with a deadline: True on success, False on timeout.

        On timeout the queued request is withdrawn (later waiters keep
        their FIFO positions) and nothing is held: a slot granted after
        the timeout's interrupt was already queued is handed on.  The
        race at the deadline cycle is deterministic, with the same rule
        as UDN receive timeouts: a slot granted in the very cycle the
        timeout expires wins, because
        :class:`~repro.sim.engine.WaitTimer` only interrupts a process
        still genuinely parked after every wakeup already queued for
        that cycle has landed.
        """
        if timeout < 1:
            raise ValueError("timeout must be >= 1 cycle")
        if self.try_acquire():
            return True
        ev = Event(self.sim)
        if self._waiters is NO_WAITERS:
            self._waiters = deque()
        self._waiters.append(ev)
        t0 = self.sim.now
        timer = WaitTimer(self.sim, self.sim.current, self.sim.now + timeout)
        try:
            yield ev
        except Interrupt as exc:
            if exc.cause is timer:
                self.total_wait_cycles += self.sim.now - t0
                if ev.triggered:
                    # a release handed us the slot in the timeout's own
                    # cycle, after the interrupt was queued: pass it on
                    self.release()
                else:
                    self._waiters.remove(ev)
                return False
            raise
        finally:
            timer.disarm()
        self.total_acquisitions += 1
        self.total_wait_cycles += self.sim.now - t0
        return True

    def release(self) -> None:
        if self.in_use <= 0:
            raise RuntimeError("release without matching acquire")
        if self._waiters:
            # Hand the slot directly to the next waiter (in_use unchanged).
            self._waiters.popleft().trigger()
        else:
            self.in_use -= 1

    def release_at(self, when: int) -> None:
        """:meth:`release` at cycle ``when`` (>= now): the resource itself
        is queued, exactly where ``sim.call_at(when, res.release)`` would
        queue a callback."""
        self.sim._queue(self, when)

    def _send(self, _val: Any) -> Any:
        # the engine's delivery hook: runs between process steps
        self.sim._current = None
        self.release()
        return _HANDLED


class Condition:
    """A re-armable broadcast notification (no stored value, no memory).

    ``wait()`` blocks until the *next* ``notify_all()``.  Unlike
    :class:`~repro.sim.engine.Event`, a condition can be signalled many
    times; each signal wakes exactly the processes waiting at that
    moment.  This models invalidation wakeups for spinning cores.
    """

    __slots__ = ("sim", "label", "_waiters")

    def __init__(self, sim: Simulator, label: Optional[str] = None):
        self.sim = sim
        #: free-form description surfaced by deadlock diagnostics
        self.label = label
        self._waiters: List[Event] = []

    @property
    def num_waiters(self) -> int:
        return len(self._waiters)

    def wait(self) -> Generator[Any, Any, None]:
        yield self.arm()

    def arm(self) -> Event:
        """Join the next :meth:`notify_all` and return the event to yield
        (what ``wait`` does, for hot callers that park without its frame)."""
        ev = Event(self.sim, label=self.label)
        self._waiters.append(ev)
        return ev

    def notify_all(self) -> None:
        waiters, self._waiters = self._waiters, []
        for ev in waiters:
            ev.trigger()
