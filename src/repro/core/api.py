"""Common interface of all synchronization approaches.

An :class:`OpTable` registers critical-section bodies and hands out the
integer opcodes that travel in requests (the paper's inlining
optimization: a "unique opcode of the CS" instead of a function
pointer).  A CS body is a generator ``fn(ctx, arg) -> int``: it runs
*on the servicing thread's context*, so the shared data it touches is
charged to -- and cached at -- the servicing core.  That is precisely the
data-locality effect the server/combiner approaches exploit.

A :class:`SyncPrimitive` executes opcodes in mutual exclusion via
``apply_op``.  Server-based primitives additionally occupy dedicated
threads (``service_threads``/``start``).
"""

from __future__ import annotations

from typing import Any, Callable, Generator, List, Optional, Tuple

from repro.machine.machine import Machine, ThreadCtx

__all__ = ["DispatchTimeout", "OpTable", "SyncPrimitive", "NULL_ARG"]

#: placeholder argument for zero-argument operations
NULL_ARG = 0

OpFn = Callable[[ThreadCtx, int], Generator[Any, Any, int]]


class DispatchTimeout(Exception):
    """A timed dispatch expired *before the operation was committed*.

    Raised only by :meth:`SyncPrimitive.apply_op` implementations that
    can abandon a dispatch cleanly when given a ``timeout``: when this
    escapes, the operation has executed **zero** effects anywhere in the
    machine, so retrying it is always safe (exactly-once is preserved by
    construction).  Primitives
    that cannot withdraw an in-flight request never raise it -- once the
    request is committed they complete it, even past the deadline.
    ``waited`` is the cycles spent before giving up.
    """

    def __init__(self, message: str, waited: int = 0):
        super().__init__(message)
        self.waited = waited


class OpTable:
    """Registry of critical-section bodies, dispatched by opcode.

    ``dispatch_cost`` models the indirect branch / inlined-switch the
    servicing thread executes per request (a couple of cycles).
    """

    def __init__(self, dispatch_cost: int = 1):
        self.dispatch_cost = dispatch_cost
        self._ops: List[Tuple[str, OpFn]] = []

    def register(self, fn: OpFn, name: Optional[str] = None) -> int:
        """Register a CS body; returns its opcode."""
        opcode = len(self._ops)
        self._ops.append((name or fn.__name__, fn))
        return opcode

    def __len__(self) -> int:
        return len(self._ops)

    def execute(self, ctx: ThreadCtx, opcode: int, arg: int) -> Generator[Any, Any, int]:
        """Run the CS body for ``opcode`` on ``ctx`` (the servicing thread)."""
        try:
            _name, fn = self._ops[opcode]
        except IndexError:
            raise ValueError(f"unknown opcode {opcode}") from None
        if self.dispatch_cost:
            yield from ctx.work(self.dispatch_cost)
        retval = yield from fn(ctx, arg)
        return int(retval) if retval is not None else 0


class SyncPrimitive:
    """Base class: execute registered opcodes in mutual exclusion.

    Life cycle: construct with the machine and an op table, call
    :meth:`start` once (spawns any dedicated server threads), then any
    number of application threads call ``yield from
    prim.apply_op(ctx, opcode, arg)`` concurrently -- the one dispatch
    call, optionally under a pre-commit deadline (``timeout=``).

    ``service_threads`` is the number of *dedicated* (non-application)
    threads the primitive consumes -- the cost the combining approaches
    exist to avoid (1 per server for the server approaches, 0 for
    combiners and locks).
    """

    #: number of dedicated threads this primitive needs
    service_threads: int = 0
    #: human-readable name used in figures/legends
    name: str = "?"

    def __init__(self, machine: Machine, optable: OpTable):
        self.machine = machine
        self.optable = optable
        self._started = False
        #: (end_time, ops_combined) per combining session -- combiners only
        self.combining_sessions: List[Tuple[int, int]] = []
        #: core of the most recent combiner (combiners only; used by the
        #: fixed-combiner measurement of Figure 4a)
        self.current_combiner_core: Optional[int] = None
        #: every core that has held the combiner role (combiners only)
        self._service_cores: List[int] = []
        # start time of the combining session currently open (obs span)
        self._session_t0: Optional[int] = None
        self._session_ctx: Optional[ThreadCtx] = None

    def start(self) -> None:
        """Spawn dedicated threads (if any).  Idempotence is an error."""
        if self._started:
            raise RuntimeError(f"{self.name} already started")
        self._started = True
        self._start()

    def _start(self) -> None:
        """Hook for subclasses with dedicated threads."""

    def apply_op(self, ctx: ThreadCtx, opcode: int, arg: int = NULL_ARG,
                 timeout: Optional[int] = None) -> Generator[Any, Any, int]:
        """Execute ``opcode(arg)`` in mutual exclusion; returns its result.

        ``timeout`` (cycles) is an admission deadline for overload
        control.  The contract:

        * raises :class:`DispatchTimeout` only while abandonment is still
          side-effect free -- the op provably executed nowhere, so the
          caller may shed or retry it without breaking exactly-once;
        * past the primitive's *commit point* (request injected into the
          server's hardware queue, node linked into a combining list,
          channel claimed by the server) the deadline is ignored and the
          op completes normally, however late.

        The combiners commit with one wait-free SWAP/FAA and have no
        pre-commit window, so they accept the deadline and ignore it;
        bounding the *admission queue* in front of the client is then
        the only overload control (see :mod:`repro.workload.openloop`).
        """
        raise NotImplementedError

    # -- metrics hooks -----------------------------------------------------
    def servicing_cores(self) -> List[int]:
        """Core ids whose cycle counters represent the servicing thread
        (the server core, or every core that combined so far)."""
        return list(self._service_cores)

    def _take_combiner_role(self, ctx: ThreadCtx) -> None:
        """Record ``ctx``'s core as the current combiner."""
        cid = ctx.core.cid
        if cid not in self._service_cores:
            self._service_cores.append(cid)
        self.current_combiner_core = cid

    def session_begin(self, ctx: ThreadCtx) -> None:
        """Mark ``ctx`` as opening a combining session (obs span start)."""
        self._session_t0 = self.machine.now
        self._session_ctx = ctx
        obs = self.machine.sim.obs
        if obs is not None and "combiner.open" in obs.wanted:
            obs.emit("combiner.open", ctx.core.cid, ctx.tid, self.name)

    def record_session(self, ops: int) -> None:
        self.combining_sessions.append((self.machine.now, ops))
        obs = self.machine.sim.obs
        if obs is not None and self._session_ctx is not None:
            ctx = self._session_ctx
            obs.counters.combined(ops)
            if "combiner.close" in obs.wanted:
                obs.emit("combiner.close", ctx.core.cid, ctx.tid, self.name,
                         ops, self._session_t0 if self._session_t0 is not None
                         else self.machine.now)
        self._session_t0 = None
        self._session_ctx = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(name={self.name!r})"


class DirectExec(SyncPrimitive):
    """No synchronization at all: run the CS body on the calling thread.

    Only correct single-threaded.  Used to produce the "ideal" reference
    line of Figure 4c (the CS body with zero synchronization overhead)
    and as a baseline in tests.
    """

    service_threads = 0
    name = "ideal"

    def apply_op(self, ctx: ThreadCtx, opcode: int, arg: int = NULL_ARG,
                 timeout: Optional[int] = None):
        return (yield from self.optable.execute(ctx, opcode, arg))
