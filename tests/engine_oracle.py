"""Reference scheduler: the engine's ordering contract, written plainly.

The oracle of tests/test_engine_oracle.py, which runs the same
generated programs on this scheduler and on
:class:`repro.sim.engine.Simulator` and requires identical traces.  It
has one ``heapq`` of ``(cycle, seq, entry)``: no fast lane, no per-cycle
buckets, no gap jumps and no flags standing in for liveness.  Every
rule below is one plain statement in the code.

It is also the yardstick of the engine's speed gates in
``benchmarks/test_bench_engine.py``, whose bounds are ratios to this
scheduler's run time and are recorded against this file's sha256.  A
change here re-records those bounds and the digest in the same change;
speeding this scheduler up to make a gate pass defeats both its roles.

The ordering contract
---------------------
1. **Queue order.**  Every piece of scheduled work is an entry queued
   for a cycle at or after the current one (earlier raises
   ``ValueError("cannot schedule in the past ...")``).  Entries run in
   ``(cycle, seq)`` order, where ``seq`` counts queue operations: work
   due at the same cycle runs in the order it was queued, and work
   queued *for* the current cycle runs after everything already queued
   for it.

2. **Liveness.**  A process has at most one pending wakeup.  Anything
   that supersedes it -- an interrupt, a kill, a finish -- cancels the
   queued entry, which is then dropped when reached: it runs nothing,
   counts as no event and moves no clock.  An interrupt's throw is
   superseded by a later interrupt, a kill or a finish of the same
   process.

3. **The clock.**  The clock moves to an entry's cycle only when a live
   entry due there is reached; a cycle whose entries are all dead
   leaves the clock where it was.  On each move the sample hook fires
   first if the new cycle is at or past its due point (grid aligned to
   ``every``; an idle gap collapses to one sample).  ``run(until)``
   stops before the first entry due after ``until`` and parks the clock
   at ``until`` (firing a due sample); a run that drains moves the
   clock to ``until`` if given, fires a due sample, and raises
   :class:`~repro.sim.engine.DeadlockError` if live non-daemon
   processes remain.

4. **Events.**  Every live entry reached counts one event, including a
   wakeup deferred by a suspension and a deferred kill landing.  With
   ``max_events`` set, the event that would exceed it is counted and
   raises ``RuntimeError`` before it runs.

5. **Process steps.**  ``yield n`` resumes at ``now + n`` with ``None``;
   ``yield event`` resumes at once with the event's value if it has
   triggered, else parks the process on it.  A trigger queues a wakeup
   for each parked process in the order they parked, except a process
   with an interrupt pending (the interrupt wins).  A process that
   interrupts or kills itself during a step has that step's yield
   voided: it neither sleeps nor parks.
   ``interrupt`` queues an :class:`~repro.sim.engine.Interrupt` throw
   at the current cycle; ``kill`` ends the process at once (or, inside a
   shield, at its first wakeup after the shield ends), triggering its
   join event with ``None``.  A wakeup or throw reached while the
   process is suspended is re-queued for the cycle the suspension ends.
   ``_resume_gen`` counts steps, interrupts, kills and finishes: it is
   what :class:`~repro.sim.engine.WaitTimer` reads to tell "stepped
   since I looked" from "still parked", so the library's own timer runs
   on this scheduler unchanged.

6. **Exploration.**  With a ``policy`` installed, each *lane chunk* of
   two or more entries is offered to ``policy.reorder_lane(entries,
   now)`` before it runs, dead entries included.  A lane chunk is the
   work queued for the current cycle while the previous chunk (or the
   cycle's first batch of earlier-queued work) ran; work queued for a
   later cycle is never offered.  The policy keeps pinned entries
   (callbacks and resource releases) in place.

7. **Callbacks and tasks.**  ``call_at`` runs a pinned callback outside
   any process (``current`` is ``None``); ``start`` steps a background
   generator like a process that nothing can address, ending silently.
"""

from __future__ import annotations

import heapq
import operator
from collections import deque
from typing import Any, Callable, Deque, List, Optional

from repro.sim.engine import DeadlockError, Interrupt, WaitTimer

__all__ = ["Event", "Process", "Resource", "Simulator", "WaitTimer"]


class Event:
    """One-shot condition (the engine's :class:`~repro.sim.engine.Event`)."""

    def __init__(self, sim: "Simulator", label: Optional[str] = None):
        self.sim = sim
        self.triggered = False
        self.value: Any = None
        self.label = label
        self.parked: List[Any] = []  # processes and tasks, in park order

    def trigger(self, value: Any = None) -> None:
        if self.triggered:
            raise RuntimeError("Event triggered twice")
        self.triggered = True
        self.value = value
        parked, self.parked = self.parked, []
        for who in parked:
            who.waiting_on = None
            if who.irq_pending:
                continue  # the interrupt wins
            self.sim._wake(who, value, self.sim.now)

    def describe(self) -> str:
        return self.label or "anonymous event"


class _Entry:
    pinned = False
    #: lane chunk number when queued for the current cycle, else None
    chunk: Optional[int] = None


class _Wake(_Entry):
    """Resume ``who`` (a process or task) with ``value``."""

    def __init__(self, who: Any, value: Any):
        self.who = who
        self.value = value


class _Throw(_Entry):
    """Throw ``exc`` into ``proc``; ``irq`` is its interrupt number."""

    def __init__(self, proc: "Process", exc: BaseException, irq: int):
        self.proc = proc
        self.exc = exc
        self.irq = irq


class _Call(_Entry):
    pinned = True

    def __init__(self, fn: Callable[[], None]):
        self.fn = fn


class _Task:
    """A background generator (``Simulator.start``)."""

    irq_pending = False
    name = "background task"

    def __init__(self, gen):
        self.gen = gen
        self.wake: Optional[_Wake] = None
        self.waiting_on: Optional[Event] = None


class Process:
    def __init__(self, sim: "Simulator", gen, name: str, daemon: bool):
        self.sim = sim
        self.gen = gen
        self.name = name
        self.daemon = daemon
        self.alive = True
        self.killed = False
        self.result: Any = None
        self.done: Optional[Event] = None
        self.waiting_on: Optional[Event] = None
        self.wake: Optional[_Wake] = None  # the one pending wakeup
        self.irq = 0                       # interrupt number (rule 2)
        self.irq_pending = False
        self.shield = 0
        self.pending_kill: Any = None
        self.suspended_until = 0
        self._resume_gen = 0  # steps + interrupts + kills + finishes
        # written by WaitTimer; this scheduler needs neither
        self._watch = 0
        self._slow = False

    def join(self):
        if self.alive:
            if self.done is None:
                self.done = Event(self.sim)
            yield self.done
        return self.result

    def blocked_event(self) -> Optional[Event]:
        return self.waiting_on

    def interrupt(self, cause: Any = None) -> None:
        if not self.alive:
            return
        self._unpark()
        self.wake = None
        self.irq += 1
        self._resume_gen += 1
        self.irq_pending = True
        sim = self.sim
        sim._push(sim.now, _Throw(self, Interrupt(cause), self.irq))

    def kill(self, cause: Any = None) -> None:
        if not self.alive:
            return
        if self.shield > 0:
            self.pending_kill = cause if cause is not None else True
            return
        self._die()

    def shield_begin(self) -> None:
        self.shield += 1

    def shield_end(self) -> None:
        if self.shield <= 0:
            raise RuntimeError("shield_end without matching shield_begin")
        self.shield -= 1

    def suspend_until(self, when: int) -> None:
        self.suspended_until = max(self.suspended_until, when)

    def _unpark(self) -> None:
        if self.waiting_on is not None:
            self.waiting_on.parked.remove(self)
            self.waiting_on = None

    def _die(self) -> None:
        self._unpark()
        self.wake = None
        self.irq += 1
        self._resume_gen += 1
        self.irq_pending = False
        self.alive = False
        self.killed = True
        self.pending_kill = None
        self.result = None
        if self.done is not None:
            self.done.trigger(None)

    def _finish(self, result: Any) -> None:
        self.wake = None
        self.irq += 1
        self._resume_gen += 1
        self.alive = False
        self.result = result
        if self.done is not None:
            self.done.trigger(result)


class Resource:
    """FIFO arbitration point with ``capacity`` slots: a grant hands the
    slot straight to the oldest waiter."""

    def __init__(self, sim: "Simulator", capacity: int = 1):
        self.sim = sim
        self.capacity = capacity
        self.in_use = 0
        self.waiters: Deque[Event] = deque()

    def try_acquire(self) -> bool:
        if self.in_use < self.capacity and not self.waiters:
            self.in_use += 1
            return True
        return False

    def acquire(self):
        if self.try_acquire():
            return
        ev = Event(self.sim)
        self.waiters.append(ev)
        yield ev

    def acquire_timeout(self, timeout: int):
        if timeout < 1:
            raise ValueError("timeout must be >= 1 cycle")
        if self.try_acquire():
            return True
        ev = Event(self.sim)
        self.waiters.append(ev)
        timer = WaitTimer(self.sim, self.sim.current, self.sim.now + timeout)
        try:
            yield ev
        except Interrupt as exc:
            if exc.cause is timer:
                if ev.triggered:
                    self.release()  # granted after the timeout: hand it on
                else:
                    self.waiters.remove(ev)
                return False
            raise
        finally:
            timer.disarm()
        return True

    def release(self) -> None:
        if self.in_use <= 0:
            raise RuntimeError("release without matching acquire")
        if self.waiters:
            self.waiters.popleft().trigger()
        else:
            self.in_use -= 1

    def release_at(self, when: int) -> None:
        self.sim.call_at(when, self.release)


class Simulator:
    def __init__(self, max_events: Optional[int] = None):
        self.now = 0
        self.policy: Any = None
        self.max_events = max_events
        self.detect_deadlock = True
        self._heap: List[Any] = []
        self._seq = 0
        self._chunk = 0  # the lane chunk now open (rule 6)
        self._nevents = 0
        self._current: Optional[Process] = None
        self._procs: List[Process] = []
        self._sample_every = 0
        self._sample_fn: Optional[Callable[[int], None]] = None
        self._sample_due: Optional[int] = None

    # -- public API ------------------------------------------------------
    @property
    def events_processed(self) -> int:
        return self._nevents

    @property
    def current(self) -> Optional[Process]:
        return self._current

    def event(self, label: Optional[str] = None) -> Event:
        return Event(self, label)

    def spawn(self, gen, name: str = "?", daemon: bool = False) -> Process:
        proc = Process(self, gen, name, daemon)
        self._procs.append(proc)
        self._wake(proc, None, self.now)
        return proc

    def start(self, gen) -> None:
        self._wake(_Task(gen), None, self.now)

    def call_at(self, when: int, fn: Callable[[], None]) -> None:
        self._push(when, _Call(fn))

    def set_sample_hook(self, every: int, fn: Callable[[int], None]) -> None:
        self._sample_every = every
        self._sample_fn = fn
        self._sample_due = self.now - self.now % every + every

    def run(self, until: Optional[int] = None) -> None:
        heap = self._heap
        while heap:
            when, _, first = heap[0]
            if until is not None and when > until:
                self._advance(until)
                return
            if first.chunk is None:
                # queued for this cycle before it began: never offered
                heapq.heappop(heap)
                self._reach(when, first)
                continue
            batch = []
            while heap and heap[0][0] == when and heap[0][2].chunk == first.chunk:
                batch.append(heapq.heappop(heap)[2])
            self._chunk += 1
            if self.policy is not None and len(batch) > 1:
                batch = self.policy.reorder_lane(batch, self.now)
            for entry in batch:
                self._reach(when, entry)
        if until is not None:
            self._advance(max(self.now, until))
        else:
            self._advance(self.now)
        if self.detect_deadlock:
            blocked = sorted((p for p in self._procs
                              if p.alive and not p.daemon),
                             key=lambda p: p.name)
            if blocked:
                raise DeadlockError(
                    f"deadlock at cycle {self.now}: "
                    + ", ".join(p.name for p in blocked), blocked)

    # -- scheduling ------------------------------------------------------
    def _push(self, when: int, entry: _Entry) -> None:
        if when < self.now:
            raise ValueError(f"cannot schedule in the past ({when} < {self.now})")
        entry.chunk = self._chunk if when == self.now else None
        heapq.heappush(self._heap, (when, self._seq, entry))
        self._seq += 1

    def _wake(self, who: Any, value: Any, when: int) -> None:
        entry = _Wake(who, value)
        who.wake = entry
        self._push(when, entry)

    def _advance(self, when: int) -> None:
        self.now = when
        due = self._sample_due
        if due is not None and when >= due:
            self._current = None
            self._sample_fn(when)
            every = self._sample_every
            due += every
            if due <= when:
                due = when - when % every + every
            self._sample_due = due

    def _live(self, entry: _Entry) -> bool:
        if isinstance(entry, _Wake):
            return entry.who.wake is entry
        if isinstance(entry, _Throw):
            return entry.irq == entry.proc.irq
        return True

    def _reach(self, when: int, entry: _Entry) -> None:
        if not self._live(entry):
            return  # dead: runs nothing, counts nothing, moves no clock
        if when > self.now:
            self._advance(when)
        self._nevents += 1
        if self.max_events is not None and self._nevents > self.max_events:
            raise RuntimeError(f"simulation exceeded {self.max_events} events")
        if isinstance(entry, _Call):
            self._current = None
            entry.fn()
            return
        if isinstance(entry, _Wake):
            who = entry.who
            who.wake = None
            if isinstance(who, _Task):
                self._step(who, who.gen.send, entry.value)
                return
            if self._deferred(who, entry):
                return
            self._step(who, who.gen.send, entry.value)
            return
        proc = entry.proc
        if self._deferred(proc, entry):
            return
        proc.irq_pending = False
        self._step(proc, proc.gen.throw, entry.exc)

    def _deferred(self, proc: Process, entry: _Entry) -> bool:
        """Suspension re-queues the entry; a due deferred kill lands."""
        if proc.suspended_until > self.now:
            if isinstance(entry, _Wake):
                self._wake(proc, entry.value, proc.suspended_until)
            else:
                self._push(proc.suspended_until, entry)
            return True
        if proc.pending_kill is not None and proc.shield == 0:
            proc._die()
            return True
        return False

    def _step(self, who: Any, resume: Callable[[Any], Any], arg: Any) -> None:
        task = isinstance(who, _Task)
        if not task:
            who._resume_gen += 1
            irq = who.irq
        self._current = None if task else who
        try:
            effect = resume(arg)
        except StopIteration as stop:
            self._current = None
            if not task:
                who._finish(stop.value)
            return
        self._current = None
        if not task and (not who.alive or who.irq != irq):
            return  # it interrupted or killed itself: the yield is void
        if isinstance(effect, Event):
            if effect.triggered:
                self._wake(who, effect.value, self.now)
            else:
                who.waiting_on = effect
                effect.parked.append(who)
            return
        try:
            delay = operator.index(effect)
        except TypeError:
            raise TypeError(
                f"process {who.name!r} yielded unsupported effect {effect!r}; "
                "yield an int (delay) or an Event") from None
        self._wake(who, None, self.now + delay)
