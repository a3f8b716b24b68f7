"""Core discrete-event simulation engine.

The engine executes *processes* -- Python generators -- against a global
clock measured in integer cycles.  A process interacts with the simulator
exclusively through the values it yields:

``yield n`` (a non-negative ``int``)
    Suspend the process for ``n`` simulated cycles.

``yield event`` (an :class:`Event`)
    Suspend until the event is triggered; ``event.value`` is sent back
    into the generator as the result of the ``yield`` expression.

Composite behaviours (acquiring a resource, performing a cache-coherent
load, receiving a hardware message, ...) are written as generators and
invoked with ``yield from``, so the engine itself never needs to know
about them.  This two-effect design keeps the trampoline small and fast,
which matters: a single benchmark point simulates hundreds of thousands
of events in pure Python.

Determinism
-----------
Events scheduled for the same cycle fire in FIFO order of scheduling, so
a given program produces the exact same execution every run.  All
randomness in higher layers flows from seeded generators.

Schedule exploration hooks into exactly one seam here: when
:attr:`Simulator.policy` is set (a ``repro.explore`` ``SchedulePolicy``),
each grabbed same-cycle chunk with more than one entry is offered to
``policy.reorder_lane(entries, now)`` before being swept.  Any
permutation the policy returns is a legal tie-break order, except that
entries whose ``pinned`` attribute is true (plain callbacks --
model-internal machinery) must keep their relative positions.  With
``policy`` left ``None`` -- the default -- the sweep takes the exact
pre-existing path, so default runs stay bit-identical (see
tests/test_parallel.py golden fingerprints).

Scheduler internals
-------------------
Since engine v3 the hot loop lives in :mod:`repro.sim._engine_core`
(typed, compiled-friendly; this module re-exports it and adds the cold
helpers).  Entries are processed in strict FIFO-per-cycle order across
two tiers (see DESIGN.md §11 and §16 for the invariants):

* the **same-cycle fast lane**: a plain list of entries due at the
  current cycle, swept in grabbed chunks.  Zero-delay resumes -- event
  triggers, ``yield 0``, store-buffer drains -- are the dominant
  scheduling class (>80% of pushes under the Figure 3 workloads), and
  the lane turns each one into a list append plus one loop iteration;
* **per-cycle buckets** keyed by due cycle, with a heap of the distinct
  cycles, for future work (hardware latencies, timeouts, watchdogs).
  Advancing the clock drains a whole cycle in one pass and jumps idle
  gaps in O(1) -- one heap pop per cycle, not per event.

Appends to the lane and to a bucket happen in scheduling order, so each
tier is internally FIFO; cross-tier ordering holds because everything a
bucket drain schedules for its own cycle lands in the lane, which is
swept next.  One sweep steps both: a bucket drain drops the dead
entries ahead of its first live one (an all-dead cycle moves neither the
clock nor the sample hook), advances the clock there and sweeps the
rest exactly as a lane chunk.  Code outside the run loop queues an
entry only through ``Simulator._queue(entry, when)``, which picks the
tier.  ``tests/engine_oracle.py`` restates this order as a plain
one-heap scheduler, and ``tests/test_engine_oracle.py`` checks the
engine against it on generated programs.

Fault semantics
---------------
A process has at most one live wakeup at any time, tracked by a flag on
the process itself; interrupting, killing or otherwise superseding it
zombies the queued entry, which the sweep drops.  This makes
:meth:`Process.interrupt` safe in every blocked state -- waiting on an
event, sleeping on an ``int`` delay, or already scheduled to run -- and
is what the fault-injection layer (:mod:`repro.faults`) builds on.
:meth:`Process.kill` models a fail-stop crash: the generator is
abandoned *without* running its ``finally`` blocks (a crashed thread
executes nothing).  When the pending-event set drains while live
non-daemon processes are still blocked, :meth:`Simulator.run` raises
:class:`DeadlockError` naming each blocked process and what it waits
on, instead of returning silently.
"""

from __future__ import annotations

from typing import Any, Generator, Iterable, List, Optional

from repro.sim._engine_core import (  # noqa: F401  (re-exported API)
    IS_COMPILED,
    DeadlockError,
    Event,
    Interrupt,
    Process,
    Simulator,
    _coerce_delay,
)

__all__ = [
    "DeadlockError",
    "Event",
    "Interrupt",
    "IS_COMPILED",
    "Process",
    "Simulator",
    "WaitTimer",
]


class WaitTimer:
    """A one-shot watchdog used to build timed blocking operations.

    Arms at construction: at ``deadline`` the timer interrupts ``proc``
    with *itself* as the :class:`Interrupt` cause -- but only if the
    process is still genuinely parked on an event *after every wakeup
    already queued for the deadline cycle has landed*.  An arrival
    scheduled for the same cycle therefore wins the race against the
    timeout, deterministically, regardless of which callback entered the
    queue first.  Callers must :meth:`disarm` when the guarded operation
    completes (typically in a ``finally``, before yielding again).

    While armed, the timer *watches* the process (``_watch`` refcount):
    the engine then counts the process's steps in ``_resume_gen``, which
    is how :meth:`_fire` tells "stepped since I last looked" (re-check
    now) from "still parked with its wakeup at a later cycle" (the
    timeout simply loses).  The count is released on :meth:`disarm` or
    on any terminal :meth:`_fire` outcome, so untimed hot paths never
    pay for it.
    """

    __slots__ = ("sim", "proc", "armed", "_deferred", "_gen_at_check",
                 "_watching")

    def __init__(self, sim: Simulator, proc: Process, deadline: int):
        self.sim = sim
        self.proc = proc
        self.armed = True
        #: True once the deadline-cycle re-check has been queued
        self._deferred = False
        #: proc resume generation at the last not-parked observation
        self._gen_at_check: Optional[int] = None
        #: True while this timer holds a ``_watch`` count on ``proc``
        self._watching = True
        proc._watch += 1
        proc._slow = True  # route resumes through the counting slow path
        sim.call_at(deadline, self._fire)

    def _unwatch(self) -> None:
        if self._watching:
            self._watching = False
            self.proc._watch -= 1
            # _slow clears itself lazily on the next slow resume once
            # nothing (suspension, deferred kill, watchers) needs it

    def _fire(self) -> None:
        if not self.armed or not self.proc.alive:
            self._unwatch()
            return
        if self.proc.blocked_event() is None:
            # Not parked: a wakeup (e.g. a same-cycle message arrival) is
            # in flight.  Re-check after the process has stepped; if it
            # has not stepped since the last look, its wakeup sits at a
            # later cycle and the timeout simply loses.
            if self.proc._resume_gen != self._gen_at_check:
                self._gen_at_check = self.proc._resume_gen
                self.sim.call_at(self.sim.now, self._fire)
            else:
                self._unwatch()
            return
        if self._deferred:
            self._unwatch()
            self.proc.interrupt(self)
        else:
            # Parked -- but a delivery queued earlier this same cycle may
            # still be behind us in the lane.  Look again after it.
            self._deferred = True
            self.sim.call_at(self.sim.now, self._fire)

    def disarm(self) -> None:
        self.armed = False
        self._unwatch()


def all_of(sim: Simulator, procs: Iterable[Process]) -> Generator[Any, Any, list]:
    """``yield from all_of(sim, procs)`` -- wait for all, return results in order."""
    results: List[Any] = []
    for p in procs:
        r = yield from p.join()
        results.append(r)
    return results
