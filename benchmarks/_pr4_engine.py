"""Frozen PR 4 engine (same-cycle fast lane), the second speedup yardstick.

This is a verbatim snapshot of ``repro.sim.engine`` from just before the
engine v3 rewrite (batched cycle advancement + bare-entry lane): the
PR 4 fast-lane trampoline with per-entry heap pops and 4-tuple lane
entries.  It exists so ``test_bench_engine.py`` can measure engine v3
against the exact code it replaced, in-process and on the same host.
Do not update it when the real engine changes -- it is the fixed PR 4
baseline.

Original module docstring follows.

---

Core discrete-event simulation engine.

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
Events scheduled for the same cycle fire in FIFO order of scheduling
(ties broken by a monotonically increasing sequence number), so a given
program produces the exact same execution every run.  All randomness in
higher layers flows from seeded generators.

Schedule exploration hooks into exactly one seam here: when
:attr:`Simulator.policy` is set (a ``repro.explore`` ``SchedulePolicy``),
each grabbed same-cycle chunk with more than one entry is offered to
``policy.reorder_lane(entries, now)`` before being swept.  Any
permutation the policy returns is a legal tie-break order (all entries
are due the same cycle; resume generations already make stale wakeups
drop safely in any order).  With ``policy`` left ``None`` -- the default
-- the sweep takes the exact pre-existing path, so default runs stay
bit-identical (see tests/test_parallel.py golden fingerprints).

Scheduler internals
-------------------
Entries are processed in strict ``(when, seq)`` order, but they are not
all kept in one heap.  Two tiers back the same contract (see DESIGN.md
§11 for the invariants and the equivalence argument):

* the **same-cycle fast lane**: a plain list holding entries due at the
  current cycle, swept in chunks (grab the list, hand the scheduler a
  fresh one, iterate the grabbed chunk).  Zero-delay resumes -- event
  triggers, ``yield 0``, store-buffer drains -- are the dominant
  scheduling class (>80% of pushes under the Figure 3 workloads), and
  the lane turns each one into a list append plus one loop iteration,
  with no heap traffic at all;
* the **heap**, for entries due at a future cycle (hardware latencies,
  timeouts, watchdogs).

Appends to the lane happen in sequence order and everything in a
grabbed chunk predates everything scheduled while sweeping it, so each
tier is internally FIFO; cross-tier ordering holds because a heap entry
due at the current cycle was necessarily scheduled before every lane
entry of that cycle, so the due heap entries are drained first.

Fault semantics
---------------
Every scheduled resumption carries the target process's *resume
generation* at scheduling time; stale entries (the process was since
interrupted, killed or resumed through another path) are dropped when
popped.  This makes :meth:`Process.interrupt` safe in every blocked
state -- waiting on an event, sleeping on an ``int`` delay, or already
scheduled to run -- and is what the fault-injection layer
(:mod:`repro.faults`) builds on.  :meth:`Process.kill` models a
fail-stop crash: the generator is abandoned *without* running its
``finally`` blocks (a crashed thread executes nothing).  When the event
heap drains while live non-daemon processes are still blocked,
:meth:`Simulator.run` raises :class:`DeadlockError` naming each blocked
process and what it waits on, instead of returning silently.
"""

from __future__ import annotations

import heapq
import operator
from typing import Any, Callable, Generator, Iterable, List, Optional

__all__ = [
    "DeadlockError",
    "Event",
    "Interrupt",
    "Process",
    "Simulator",
    "WaitTimer",
]


class Interrupt(Exception):
    """Raised inside a process that is interrupted via :meth:`Process.interrupt`."""

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


class DeadlockError(RuntimeError):
    """The event heap drained while live processes were still blocked.

    ``blocked`` holds the deadlocked :class:`Process` objects (daemon
    processes -- e.g. server loops that legitimately idle forever -- are
    excluded).  The message names every blocked process and the event or
    condition it waits on, which turns a silent hang into a diagnosis.
    """

    def __init__(self, message: str, blocked: List["Process"]):
        super().__init__(message)
        self.blocked = blocked


class Event:
    """A one-shot condition that processes can wait on.

    An event starts un-triggered.  Any number of processes may wait on it
    (by yielding it); when :meth:`trigger` is called, all waiters are
    resumed at the current simulation time and receive ``value``.
    Processes that yield an already-triggered event resume immediately
    (zero-cycle delay) with the stored value.  ``label`` is a free-form
    description used by deadlock diagnostics.
    """

    __slots__ = ("sim", "triggered", "value", "label", "_waiters")

    def __init__(self, sim: "Simulator", label: Optional[str] = None):
        self.sim = sim
        self.triggered = False
        self.value: Any = None
        self.label = label
        self._waiters: List[Process] = []

    def trigger(self, value: Any = None) -> None:
        """Fire the event, waking every waiter at the current cycle."""
        if self.triggered:
            raise RuntimeError("Event triggered twice")
        self.triggered = True
        self.value = value
        waiters = self._waiters
        n = len(waiters)
        if n == 1:
            # single-waiter fast path: no list swap, one direct resume
            proc = waiters[0]
            waiters.clear()
            self.sim._schedule_resume(proc, value)
        elif n:
            self._waiters = []
            schedule = self.sim._schedule_resume
            for proc in waiters:
                schedule(proc, value)

    def describe(self) -> str:
        return self.label or "anonymous event"

    # -- engine internal -------------------------------------------------
    def _add_waiter(self, proc: "Process") -> None:
        if self.triggered:
            self.sim._schedule_resume(proc, self.value)
        else:
            self._waiters.append(proc)

    def _discard_waiter(self, proc: "Process") -> None:
        try:
            self._waiters.remove(proc)
        except ValueError:
            pass


class Process:
    """A running generator inside the simulator.

    Created via :meth:`Simulator.spawn`.  The generator's ``return``
    value (carried by ``StopIteration``) becomes :attr:`result` and is
    delivered to anything waiting on :meth:`join`.  An uncaught exception
    in a process aborts the whole simulation run -- silent failures would
    otherwise corrupt benchmark results.
    """

    __slots__ = (
        "sim",
        "gen",
        "_send",
        "name",
        "alive",
        "daemon",
        "killed",
        "result",
        "_done_event",
        "_waiting_on",
        "_resume_gen",
        "_shield",
        "_pending_kill",
        "_suspended_until",
        "_slow",
    )

    def __init__(self, sim: "Simulator", gen: Generator, name: str = "?",
                 daemon: bool = False):
        self.sim = sim
        self.gen = gen
        self._send = gen.send  # bound once: saves a lookup per resume
        self.name = name
        self.alive = True
        #: daemon processes (server loops etc.) may legitimately remain
        #: blocked forever; they are exempt from deadlock detection
        self.daemon = daemon
        #: set when the process was removed via :meth:`kill` (crash model)
        self.killed = False
        self.result: Any = None
        self._done_event = Event(sim)
        self._waiting_on: Optional[Event] = None
        #: resume generation: every scheduled wakeup carries the value at
        #: scheduling time and is dropped if the process was resumed or
        #: interrupted through another path in between
        self._resume_gen = 0
        #: depth of crash-shielded (atomic-commit) regions
        self._shield = 0
        self._pending_kill: Any = None
        self._suspended_until = 0
        #: one-flag summary of "needs the slow resume path" (suspended
        #: or kill pending); lets the run loop test a single attribute
        self._slow = False

    def join(self) -> Generator[Any, Any, Any]:
        """``yield from proc.join()`` waits for termination, returns its result."""
        if self.alive:
            yield self._done_event
        return self.result

    def blocked_event(self) -> Optional[Event]:
        """The event this process is genuinely parked on, else ``None``.

        ``None`` also when a wakeup is already scheduled (the awaited
        event has triggered but the process has not stepped yet) -- used
        by :class:`WaitTimer` so a timeout racing a same-cycle arrival
        deterministically loses to the arrival.
        """
        ev = self._waiting_on
        if ev is not None and self in ev._waiters:
            return ev
        return None

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current cycle.

        Safe in every blocked state: waiting on an event, sleeping on an
        ``int`` delay, or already scheduled to resume.  Any previously
        scheduled wakeup is invalidated (resume-generation guard), so the
        process is stepped exactly once -- with the interrupt.
        """
        if not self.alive:
            return
        if self._waiting_on is not None:
            self._waiting_on._discard_waiter(self)
            self._waiting_on = None
        self._resume_gen += 1  # cancel any pending resume (e.g. an int sleep)
        obs = self.sim.obs
        if obs is not None:
            obs.emit("proc.interrupt", name=self.name)
        self.sim._schedule_throw(self, Interrupt(cause))

    def kill(self, cause: Any = None) -> None:
        """Fail-stop crash: the process stops executing, immediately.

        Unlike :meth:`interrupt`, no exception is delivered and no
        ``finally`` blocks run -- a crashed hardware thread executes
        nothing.  Anything blocked on :meth:`join` is released with a
        ``None`` result and :attr:`killed` is set.  Inside a shielded
        region (:meth:`shield_begin`) the crash is deferred to the end of
        the region, modelling an atomic commit.
        """
        if not self.alive:
            return
        if self._shield > 0:
            self._pending_kill = cause if cause is not None else True
            self._slow = True  # land the deferred crash at the next resume
            return
        self._do_kill(cause)

    # -- crash shields ---------------------------------------------------
    def shield_begin(self) -> None:
        """Enter a region in which :meth:`kill` is deferred (atomic commit)."""
        self._shield += 1

    def shield_end(self) -> None:
        """Leave a shielded region; a deferred kill lands at the next resume."""
        if self._shield <= 0:
            raise RuntimeError("shield_end without matching shield_begin")
        self._shield -= 1

    def suspend_until(self, when: int) -> None:
        """Defer any resumption of this process until cycle ``when``.

        Models preemption / a descheduled hardware context: pending
        wakeups (message arrivals, sleep expiries) are delivered only
        once the process is scheduled again.  Safe in every state.
        """
        if when > self._suspended_until:
            self._suspended_until = when
            self._slow = True  # route wakeups through the slow resume path

    # -- engine internal -------------------------------------------------
    def _do_kill(self, cause: Any) -> None:
        if self._waiting_on is not None:
            self._waiting_on._discard_waiter(self)
            self._waiting_on = None
        self._resume_gen += 1  # invalidate anything still in the heap
        self.alive = False
        self.killed = True
        self._pending_kill = None
        self.result = None
        # Keep the generator referenced so CPython never runs its
        # ``finally`` blocks at GC time mid-simulation: a crashed thread
        # must execute nothing, not even cleanup.
        self.sim._corpses.append(self.gen)
        self.sim._forget(self)
        obs = self.sim.obs
        if obs is not None:
            obs.emit("proc.kill", name=self.name)
        self._done_event.trigger(None)

    def _finish(self, result: Any) -> None:
        self._resume_gen += 1  # any queued wakeup is now stale (the run
        self.alive = False     # loop tests only the generation, not alive)
        self.result = result
        self.sim._forget(self)
        obs = self.sim.obs
        if obs is not None:
            obs.emit("proc.exit", name=self.name)
        self._done_event.trigger(result)

    def describe_wait(self) -> str:
        """Human-readable description of what this process waits on."""
        ev = self.blocked_event()
        if ev is not None:
            return ev.describe()
        if self._waiting_on is not None:
            return f"{self._waiting_on.describe()} (wakeup pending)"
        if self._suspended_until > self.sim.now:
            return f"suspended until cycle {self._suspended_until}"
        return "no pending wakeup"


class WaitTimer:
    """A one-shot watchdog used to build timed blocking operations.

    Arms at construction: at ``deadline`` the timer interrupts ``proc``
    with *itself* as the :class:`Interrupt` cause -- but only if the
    process is still genuinely parked on an event *after every wakeup
    already queued for the deadline cycle has landed*.  An arrival
    scheduled for the same cycle therefore wins the race against the
    timeout, deterministically, regardless of which callback entered the
    heap first.  Callers must :meth:`disarm` when the guarded operation
    completes (typically in a ``finally``, before yielding again).
    """

    __slots__ = ("sim", "proc", "armed", "_deferred", "_gen_at_check")

    def __init__(self, sim: "Simulator", proc: Process, deadline: int):
        self.sim = sim
        self.proc = proc
        self.armed = True
        #: True once the deadline-cycle re-check has been queued
        self._deferred = False
        #: proc resume generation at the last not-parked observation
        self._gen_at_check: Optional[int] = None
        sim.call_at(deadline, self._fire)

    def _fire(self) -> None:
        if not self.armed or not self.proc.alive:
            return
        if self.proc.blocked_event() is None:
            # Not parked: a wakeup (e.g. a same-cycle message arrival) is
            # in flight.  Re-check after the process has stepped; if it
            # has not stepped since the last look, its wakeup sits at a
            # later cycle and the timeout simply loses.
            if self.proc._resume_gen != self._gen_at_check:
                self._gen_at_check = self.proc._resume_gen
                self.sim.call_at(self.sim.now, self._fire)
            return
        if self._deferred:
            self.proc.interrupt(self)
        else:
            # Parked -- but a delivery queued earlier this same cycle may
            # still be behind us in the heap.  Look again after it.
            self._deferred = True
            self.sim.call_at(self.sim.now, self._fire)

    def disarm(self) -> None:
        self.armed = False


class Simulator:
    """The event loop.

    Typical use::

        sim = Simulator()
        proc = sim.spawn(my_generator())
        sim.run()
        print(sim.now, proc.result)
    """

    __slots__ = ("now", "_heap", "_fast", "_seq",
                 "_nevents", "max_events",
                 "detect_deadlock", "_processes", "_corpses", "_current", "obs",
                 "policy", "_sample_due", "_sample_every", "_sample_fn")

    def __init__(self, max_events: Optional[int] = None):
        self.now: int = 0
        #: observability event bus (:mod:`repro.obs`); ``None`` = off.
        #: Publishers guard every emit with ``if sim.obs is not None``,
        #: so a run without observability pays only that comparison.
        self.obs = None
        #: schedule-exploration policy (:mod:`repro.explore`); ``None`` =
        #: off.  When set, same-cycle lane chunks are offered to
        #: ``policy.reorder_lane`` and higher layers consult
        #: ``policy.udn_delay`` / ``policy.preempt`` at their own seams.
        #: Must be installed before :meth:`run` (it is read once per call).
        self.policy = None
        self._heap: List[Any] = []
        #: same-cycle fast lane: entries due at cycle ``now``, in
        #: sequence order (consumed in place by index inside :meth:`run`)
        self._fast: List[Any] = []
        self._seq: int = 0
        self._nevents: int = 0
        #: hard safety cap on processed events (None = unlimited)
        self.max_events = max_events
        #: raise :class:`DeadlockError` when the heap drains with live
        #: non-daemon processes still blocked (set False to restore the
        #: old silent-return behaviour)
        self.detect_deadlock = True
        self._processes: set = set()
        self._corpses: List[Generator] = []
        self._current: Optional[Process] = None
        #: continuous-telemetry sample hook (:mod:`repro.obs.timeseries`).
        #: ``_sample_due`` is an int sentinel compared against the clock
        #: wherever it advances; with no hook installed it is ``_NO_CAP``
        #: and the whole feature costs one integer compare per advance.
        self._sample_due: int = _NO_CAP
        self._sample_every: int = 0
        self._sample_fn: Optional[Callable[[int], None]] = None

    # -- public API ------------------------------------------------------
    @property
    def events_processed(self) -> int:
        return self._nevents

    @property
    def current(self) -> Optional[Process]:
        """The process being stepped right now (None outside a step)."""
        return self._current

    def live_processes(self) -> List["Process"]:
        """All processes that have not yet finished (diagnostics)."""
        return sorted(self._processes, key=lambda p: p.name)

    def spawn(self, gen: Generator, name: str = "?", daemon: bool = False) -> Process:
        """Register ``gen`` as a process; it starts at the current cycle.

        ``daemon`` marks processes (server loops, fault controllers) that
        may legitimately stay blocked forever: they are exempt from
        deadlock detection.
        """
        proc = Process(self, gen, name, daemon=daemon)
        self._processes.add(proc)
        if self.obs is not None:
            self.obs.emit("proc.spawn", name=name)
        self._schedule_resume(proc, None)
        return proc

    def event(self, label: Optional[str] = None) -> Event:
        """Create a fresh (un-triggered) event bound to this simulator."""
        return Event(self, label)

    def call_at(self, when: int, fn: Callable[[], None]) -> None:
        """Run plain callback ``fn`` at absolute cycle ``when`` (>= now)."""
        if when < self.now:
            raise ValueError(f"cannot schedule in the past ({when} < {self.now})")
        self._push(when, fn, None, _CALLBACK, 0)

    def call_after(self, delay: int, fn: Callable[[], None]) -> None:
        """Run plain callback ``fn`` after ``delay`` cycles."""
        self.call_at(self.now + delay, fn)

    def set_sample_hook(self, every: int, fn: Callable[[int], None]) -> None:
        """Call ``fn(cycle)`` whenever the clock crosses an ``every``-cycle
        boundary (continuous telemetry; see :mod:`repro.obs.timeseries`).

        The hook runs *between* events -- after everything before the
        boundary has executed, before anything at or past it does -- so
        it may only observe: it must not touch simulated state or
        schedule events.  Idle gaps fire the hook once (at the first
        clock advance past the boundary), not once per skipped period.
        """
        if every < 1:
            raise ValueError(f"sample interval must be >= 1 cycle, got {every}")
        self._sample_every = every
        self._sample_fn = fn
        self._sample_due = self.now - (self.now % every) + every

    def clear_sample_hook(self) -> None:
        """Remove the sample hook (restores the off-cost: one compare)."""
        self._sample_every = 0
        self._sample_fn = None
        self._sample_due = _NO_CAP

    def _sample_tick(self, now: int) -> None:
        # out of line from run(): only entered when a sample is due
        fn = self._sample_fn
        if fn is None:  # pragma: no cover - defensive (sentinel says due)
            self._sample_due = _NO_CAP
            return
        fn(now)
        every = self._sample_every
        due = self._sample_due + every
        if due <= now:
            # the clock jumped an idle gap: collapse it to this one sample
            due = now - (now % every) + every
        self._sample_due = due

    def run(self, until: Optional[int] = None) -> None:
        """Process events until none are pending or ``now`` passes ``until``.

        With ``until`` given, the clock is left exactly at ``until`` when
        the horizon is hit (events at later cycles stay queued and can be
        processed by a subsequent :meth:`run` call).

        Raises :class:`DeadlockError` if the pending-event set drains
        while live non-daemon processes remain blocked (see
        ``detect_deadlock``).
        """
        heap = self._heap
        fast = self._fast
        fappend = fast.append
        pop = heapq.heappop
        push = heapq.heappush
        INT = int
        SEND, CALLBACK = _SEND, _CALLBACK
        max_events = self.max_events if self.max_events is not None else _NO_CAP
        policy = self.policy  # read once per run() call (None = off)
        horizon = until if until is not None else _NEVER
        if horizon < self.now:
            # pathological but defined: a horizon in the past processes
            # nothing and (with work pending) parks the clock at it
            if fast or heap:
                self.now = until
                return
        # The lane is consumed in *chunks*: grab the current list, hand
        # the simulator a fresh one, and sweep the grabbed chunk while
        # entries scheduled during the sweep accumulate in the new list.
        # FIFO is preserved (everything in the chunk was scheduled before
        # anything appended while sweeping it) and consumed entry tuples
        # are freed as soon as the chunk is dropped, so a long same-cycle
        # burst doesn't pin an ever-growing list of dead entries.  Lane
        # entries are ``(proc, payload, kind, gen)`` -- their due cycle is
        # implicitly ``self.now``, and they carry no sequence number
        # because lane position itself is the FIFO order.  ``nevents``
        # shadows ``self._nevents`` inside the loop.
        chunk = iter(())
        nevents = self._nevents
        now = self.now
        # Heap entries due at the *current* cycle were all scheduled
        # before every lane entry of the cycle (smaller seq), and no heap
        # push made while a cycle is being processed can be due within it
        # (delays of 0 go to the lane), so each cycle is processed as:
        # drain the due heap entries first, then sweep the lane.
        heap_due = bool(heap) and heap[0][0] == now
        try:
            while True:
                if not heap_due:
                    if not fast:
                        # ---- lane empty: advance the clock via the heap --
                        if not heap:
                            break
                        when = heap[0][0]
                        if when > horizon:
                            self.now = until
                            if until >= self._sample_due:
                                self._sample_tick(until)
                            return
                    else:
                        # ---- lane sweep: the hot path --------------------
                        grabbed = fast
                        self._fast = fast = []
                        fappend = fast.append
                        if policy is not None and len(grabbed) > 1:
                            # exploration seam: the policy may permute the
                            # same-cycle tie-break order (all entries are
                            # due at ``now``; stale ones still drop via
                            # the generation guard below)
                            grabbed = policy.reorder_lane(grabbed, now)
                        chunk = iter(grabbed)
                        for proc, payload, kind, gen in chunk:
                            if kind == SEND:
                                # death (finish/kill) bumps the generation
                                # too, so one compare covers stale AND
                                # no-longer-alive
                                if gen != proc._resume_gen:
                                    continue  # stale wakeup: drop
                                nevents += 1
                                if nevents > max_events:
                                    raise RuntimeError(
                                        "simulation exceeded "
                                        f"{self.max_events} events")
                                if proc._slow:
                                    # suspended or kill pending: out-of-line
                                    if self._resume_slow(proc, payload,
                                                         SEND, gen):
                                        continue
                                # the generation was equal to ``gen``: bump
                                # it without re-reading the attribute
                                proc._resume_gen = rgen = gen + 1
                                proc._waiting_on = None
                                self._current = proc
                                try:
                                    effect = proc._send(payload)
                                except StopIteration as stop:
                                    proc._finish(stop.value)
                                    continue
                                finally:
                                    self._current = None
                                # Dispatch on the yielded effect.  ``rgen``
                                # is deliberately the pre-send generation:
                                # if the body invalidated itself
                                # (self-interrupt or kill), the entry
                                # scheduled here must go stale.
                                if effect.__class__ is INT:
                                    if effect:
                                        self._seq = seq = self._seq + 1
                                        push(heap, (now + effect, seq, proc,
                                                    None, SEND, rgen))
                                    else:
                                        fappend((proc, None, SEND, rgen))
                                elif isinstance(effect, Event):
                                    proc._waiting_on = effect
                                    effect._add_waiter(proc)
                                else:
                                    self._schedule_resume(
                                        proc, None,
                                        _coerce_delay(proc, effect))
                            elif kind == CALLBACK:
                                nevents += 1
                                if nevents > max_events:
                                    raise RuntimeError(
                                        "simulation exceeded "
                                        f"{self.max_events} events")
                                proc()  # proc slot holds the callable
                            else:  # THROW (interrupts/timeouts): rare
                                if gen != proc._resume_gen:
                                    continue
                                nevents += 1
                                if nevents > max_events:
                                    raise RuntimeError(
                                        "simulation exceeded "
                                        f"{self.max_events} events")
                                self._step(proc, payload, kind, gen)
                        # chunk swept (its tuples are freed with it); any
                        # entries scheduled meanwhile sit in the new list
                        continue
                else:
                    when = now  # due heap entry: no clock movement
                _w, _seq, proc, payload, kind, gen = pop(heap)
                heap_due = bool(heap) and heap[0][0] == when
                if kind != CALLBACK and gen != proc._resume_gen:
                    continue  # stale wakeup (interrupt/kill): drop, clock untouched
                self.now = now = when
                if when >= self._sample_due:
                    self._sample_tick(when)
                nevents += 1
                if nevents > max_events:
                    raise RuntimeError(
                        f"simulation exceeded {self.max_events} events")
                if kind == CALLBACK:
                    proc()  # proc slot holds the callable for callbacks
                    continue
                # ---- step the process (heap-sourced wakeups) -------------
                if proc._suspended_until > when:
                    # preempted: deliver this wakeup once rescheduled
                    self._push(proc._suspended_until, proc, payload, kind, gen)
                    continue
                if proc._pending_kill is not None and proc._shield == 0:
                    proc._do_kill(proc._pending_kill)  # deferred crash lands
                    continue
                proc._resume_gen = rgen = gen + 1  # older entries go stale
                proc._waiting_on = None
                self._current = proc
                try:
                    if kind == _THROW:
                        effect = proc.gen.throw(payload)
                    else:
                        effect = proc._send(payload)
                except StopIteration as stop:
                    proc._finish(stop.value)
                    continue
                finally:
                    self._current = None
                # Dispatch on the yielded effect.
                if type(effect) is int:
                    if effect:
                        self._seq = seq = self._seq + 1
                        push(heap, (when + effect, seq, proc, None, SEND,
                                    rgen))
                    else:
                        fappend((proc, None, SEND, rgen))
                elif isinstance(effect, Event):
                    proc._waiting_on = effect
                    effect._add_waiter(proc)
                else:
                    self._schedule_resume(proc, None, _coerce_delay(proc, effect))
        finally:
            # keep state consistent when an exception propagates out of a
            # process body mid-chunk (max_events, user errors): unconsumed
            # chunk entries were scheduled before everything in the
            # current lane list, so they go back in front of it
            self._nevents = nevents
            rest = list(chunk)
            if rest:
                self._fast[:0] = rest
        if until is not None and self.now < until:
            self.now = until
        if self.now >= self._sample_due:
            self._sample_tick(self.now)
        if self.detect_deadlock:
            blocked = [p for p in self._processes if p.alive and not p.daemon]
            if blocked:
                blocked.sort(key=lambda p: p.name)
                lines = "\n".join(
                    f"  - process {p.name!r} blocked on {p.describe_wait()}"
                    for p in blocked
                )
                raise DeadlockError(
                    f"deadlock at cycle {self.now}: no events are pending but "
                    f"{len(blocked)} live process(es) are still blocked:\n{lines}",
                    blocked,
                )

    # -- internals ---------------------------------------------------------
    def _forget(self, proc: Process) -> None:
        self._processes.discard(proc)

    def _push(self, when: int, proc: Any, payload: Any, kind: int, gen: int) -> None:
        if when == self.now:
            # lane entries carry no (when, seq): the due cycle is the
            # current one and the lane list itself is the FIFO order
            self._fast.append((proc, payload, kind, gen))
        else:
            self._seq = seq = self._seq + 1
            heapq.heappush(self._heap, (when, seq, proc, payload, kind, gen))

    def _schedule_resume(self, proc: Process, value: Any, delay: int = 0) -> None:
        # inlined _push: this is the busiest scheduling entry point
        # (every event trigger and message wakeup lands here with delay 0)
        if delay:
            self._seq = seq = self._seq + 1
            heapq.heappush(self._heap, (self.now + delay, seq, proc, value,
                                        _SEND, proc._resume_gen))
        else:
            self._fast.append((proc, value, _SEND, proc._resume_gen))

    def _schedule_throw(self, proc: Process, exc: BaseException) -> None:
        self._push(self.now, proc, exc, _THROW, proc._resume_gen)

    def _resume_slow(self, proc: Process, payload: Any, kind: int,
                     gen: int) -> bool:
        """Out-of-line half of the lane fast path (``proc._slow`` set):
        handle a suspended or kill-pending process.  Returns True when the
        wakeup was consumed (re-queued or the process crashed), False when
        the process should resume normally."""
        if proc._suspended_until > self.now:
            # preempted: deliver this wakeup once the context reschedules
            self._push(proc._suspended_until, proc, payload, kind, gen)
            return True
        if proc._pending_kill is not None:
            if proc._shield == 0:
                proc._do_kill(proc._pending_kill)  # deferred crash lands
                return True
            return False  # shielded: execute; the crash lands after commit
        proc._slow = False  # suspension expired and nothing pending
        return False

    def _step(self, proc: Process, payload: Any, kind: int, gen: int) -> None:
        """Deliver one wakeup to ``proc`` (out-of-loop twin of the inlined
        hot path in :meth:`run`; kept for tests and future tooling)."""
        if not proc.alive or gen != proc._resume_gen:
            return  # finished, or superseded by an interrupt/kill
        if proc._suspended_until > self.now:
            # preempted: deliver this wakeup when the context is rescheduled
            self._push(proc._suspended_until, proc, payload, kind, gen)
            return
        if proc._pending_kill is not None and proc._shield == 0:
            proc._do_kill(proc._pending_kill)  # deferred crash lands now
            return
        proc._resume_gen += 1  # consume: older queued entries become stale
        proc._waiting_on = None
        self._current = proc
        try:
            if kind == _THROW:
                effect = proc.gen.throw(payload)
            else:
                effect = proc.gen.send(payload)
        except StopIteration as stop:
            proc._finish(stop.value)
            return
        finally:
            self._current = None
        # Dispatch on the yielded effect.
        if type(effect) is int:
            self._schedule_resume(proc, None, effect)
        elif isinstance(effect, Event):
            proc._waiting_on = effect
            effect._add_waiter(proc)
        else:
            self._schedule_resume(proc, None, _coerce_delay(proc, effect))


# Event kinds in the heap.
_SEND = 0
_THROW = 1
_CALLBACK = 2

#: sentinel for "no horizon"
_NEVER = float("inf")

#: sentinel event cap for "unlimited" (int, so the per-event compare in
#: the run loop stays int-vs-int)
_NO_CAP = 1 << 63


def _coerce_delay(proc: Process, effect: Any) -> int:
    """Coerce a non-plain-``int`` yielded effect to a delay, or raise.

    ``bool`` (``True`` is a 1-cycle sleep) and numpy integer scalars are
    accepted through ``__index__``, which rejects floats and arbitrary
    objects -- the explicit form of the old ``isinstance(effect, int)``
    fallback, which silently missed numpy scalars entirely.
    """
    try:
        return operator.index(effect)
    except TypeError:
        raise TypeError(
            f"process {proc.name!r} yielded unsupported effect {effect!r}; "
            "yield an int (delay) or an Event"
        ) from None


def all_of(sim: Simulator, procs: Iterable[Process]) -> Generator[Any, Any, list]:
    """``yield from all_of(sim, procs)`` -- wait for all, return results in order."""
    results = []
    for p in procs:
        r = yield from p.join()
        results.append(r)
    return results
