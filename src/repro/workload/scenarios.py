"""Assembled benchmark scenarios: counter, variable-length CS, queue, stack.

These are the entry points behind every figure and the public
quickstart.  Each function builds a fresh machine with the requested
profile, instantiates the approach and the concurrent object, applies
the paper's thread-placement rules (server thread = thread 0 on core 0,
application threads pinned in ascending core order) and runs the
Section 5.2 loop via :func:`~repro.workload.driver.run_workload`.

Implementation labels follow the paper's legends.  :func:`build_approach`
is the approach table: the only place a label becomes a primitive and
its client threads.  It knows ``mp-server``, ``mp-server-ft`` (with a
hot standby on thread 1), ``shm-server``, ``HybComb``, ``CC-Synch`` and
``flat-combining``; :func:`build_counter` is the one assembly of a
contended-counter run on top of it.

* counter / CS-length: ``mp-server``, ``HybComb``, ``shm-server``,
  ``CC-Synch``;
* queue (Figure 5a): ``mp-server-1``, ``HybComb-1``, ``shm-server-1``,
  ``CC-Synch-1`` (one-lock MS-Queue), ``mp-server-2`` (two-lock, two
  dedicated servers) and ``LCRQ``;
* stack (Figure 5b): the four approaches plus ``Treiber``.
"""

from __future__ import annotations

from typing import Any, Dict, List, NamedTuple, Optional, Tuple

from repro.core import CCSynch, FlatCombining, HybComb, MPServer, OpTable, ShmServer
from repro.core.api import SyncPrimitive
from repro.faults import FaultInjector, FaultPlan
from repro.machine import Machine, MachineConfig, tile_gx
from repro.machine.machine import ThreadCtx
from repro.objects import (
    EMPTY,
    LCRQ,
    ArrayCS,
    LockedCounter,
    LockedStack,
    OneLockMSQueue,
    TreiberStack,
    TwoLockMSQueue,
)
from repro.workload.driver import WorkloadSpec, run_workload
from repro.workload.metrics import RunResult

__all__ = [
    "APPROACH_BUILDERS",
    "QUEUE_IMPLS",
    "STACK_IMPLS",
    "CounterRun",
    "build_approach",
    "build_counter",
    "run_counter_benchmark",
    "run_cs_length_benchmark",
    "run_fault_recovery_benchmark",
    "run_queue_benchmark",
    "run_stack_benchmark",
]

#: label -> (primitive, server threads ahead of the clients).  Section
#: 5.2: "thread i is pinned to core i.  With server-based approaches the
#: server code is executed by thread 0"; a hot standby runs on thread 1.
_APPROACHES: Dict[str, Tuple[type, int]] = {
    "mp-server": (MPServer, 1),
    "mp-server-ft": (MPServer, 2),
    "shm-server": (ShmServer, 1),
    "HybComb": (HybComb, 0),
    "CC-Synch": (CCSynch, 0),
    "flat-combining": (FlatCombining, 0),
}


def build_approach(
    name: str,
    machine: Machine,
    optable: OpTable,
    num_threads: int,
    *,
    max_ops: int = 200,
    **kw: Any,
) -> Tuple[SyncPrimitive, List[int]]:
    """Create an approach by its label; returns (prim, client tids).

    ``kw`` goes to the primitive's constructor (``request_timeout``,
    ``lease_cycles``, ``cancellable``, ``fixed_combiner_tid``); only the
    combiners take ``max_ops``.  A fixed combiner on thread 0 (Figure
    4a) serves like a server, so the clients shift to 1..n.
    """
    try:
        cls, servers = _APPROACHES[name]
    except KeyError:
        raise ValueError(f"unknown approach {name!r}; pick one of "
                         + " / ".join(_APPROACHES)) from None
    if kw.get("fixed_combiner_tid") is not None:
        servers = 1
    limit = machine.cfg.num_cores
    if num_threads + servers > limit:
        who = ("threads", "clients + server", "clients + two servers")[servers]
        raise ValueError(f"{num_threads} {who} exceed {limit} cores")
    tids = list(range(servers, servers + num_threads))
    if cls is MPServer:
        backup = {"backup_tid": 1} if servers == 2 else {}
        prim = MPServer(machine, optable, server_tid=0, **backup, **kw)
    elif cls is ShmServer:
        prim = ShmServer(machine, optable, server_tid=0, client_tids=tids,
                         **kw)
    elif cls is FlatCombining:
        prim = FlatCombining(machine, optable, **kw)
    else:
        prim = cls(machine, optable, max_ops=max_ops, **kw)
    return prim, tids


APPROACH_BUILDERS = ("mp-server", "HybComb", "shm-server", "CC-Synch")
QUEUE_IMPLS = ("mp-server-1", "HybComb-1", "shm-server-1", "CC-Synch-1",
               "mp-server-2", "LCRQ")
STACK_IMPLS = ("mp-server", "HybComb", "shm-server", "CC-Synch", "Treiber")


def _increments(counter: LockedCounter):
    """``make_op`` for the counter benchmarks: every op is one increment."""
    def make_op(ctx: ThreadCtx):
        def op(k: int):
            yield from counter.increment(ctx)
        return op
    return make_op


def _alternating(push, pop, empties: Dict[str, int]):
    """``make_op`` for balanced load: even ops push a thread-unique
    value, odd ops pop; ``empties["n"]`` counts pops that found nothing.
    Values stay below 2^31 so the same workload drives LCRQ (the paper's
    32-bit port)."""
    def make_op(ctx: ThreadCtx):
        vbase = (ctx.tid + 1) << 16

        def op(k: int):
            if k % 2 == 0:
                yield from push(ctx, vbase | (k // 2 & 0xFFFF))
            else:
                v = yield from pop(ctx)
                if v == EMPTY:
                    empties["n"] += 1
        return op
    return make_op


# ---------------------------------------------------------------------------
# counter (Figures 3a, 3b, 3c, 4a, 4b), fault recovery, overload, scale
# ---------------------------------------------------------------------------

class CounterRun(NamedTuple):
    """A started contended counter: what every counter run reads."""

    machine: Machine
    prim: SyncPrimitive
    counter: LockedCounter
    ctxs: List[ThreadCtx]

    def closed_loop(self, spec: WorkloadSpec, name: str) -> RunResult:
        """The Section 5.2 loop: every client increments back to back."""
        return run_workload(self.machine, self.ctxs, _increments(self.counter),
                            spec, name=name, prim=self.prim)


def build_counter(
    approach: str,
    num_threads: int,
    *,
    cfg: Optional[MachineConfig] = None,
    fault_plan: Optional[FaultPlan] = None,
    **kw: Any,
) -> CounterRun:
    """The one assembly of a contended-counter run, in a fixed order:
    allocation order fixes memory addresses, and through them every
    simulated number.  ``kw`` goes to :func:`build_approach`."""
    machine = Machine(cfg or tile_gx())
    prim, tids = build_approach(approach, machine, OpTable(), num_threads,
                                **kw)
    counter = LockedCounter(prim)
    prim.start()
    ctxs = [machine.thread(tid) for tid in tids]
    if fault_plan:
        FaultInjector(machine, fault_plan).install()
    return CounterRun(machine, prim, counter, ctxs)


def run_counter_benchmark(
    approach: str = "mp-server",
    num_threads: int = 16,
    *,
    spec: Optional[WorkloadSpec] = None,
    cfg: Optional[MachineConfig] = None,
    max_ops: int = 200,
    fixed_combiner: bool = False,
    fault_plan: Optional[FaultPlan] = None,
) -> RunResult:
    """The Section 5.3 microbenchmark: a contended concurrent counter.

    ``fixed_combiner=True`` reproduces the Figure 4a methodology
    (MAX_OPS effectively infinite, so one thread keeps the combiner role
    and its core's counters isolate the servicing critical path).

    ``fault_plan`` injects faults (see :mod:`repro.faults`) into the run;
    an empty plan leaves the run bit-for-bit unchanged.
    """
    # footnote 4: a permanent combiner on thread 0 (= MAX_OPS inf)
    fixed = ({"fixed_combiner_tid": 0}
             if fixed_combiner and approach in ("HybComb", "CC-Synch") else {})
    run = build_counter(approach, num_threads, cfg=cfg, fault_plan=fault_plan,
                        max_ops=max_ops, **fixed)
    return run.closed_loop(spec or WorkloadSpec(), approach)


def run_fault_recovery_benchmark(
    num_clients: int = 8,
    *,
    spec: Optional[WorkloadSpec] = None,
    cfg: Optional[MachineConfig] = None,
    request_timeout: int = 2_000,
    fault_plan: Optional[FaultPlan] = None,
) -> RunResult:
    """Contended counter on fault-tolerant MP-SERVER with a hot standby.

    Thread 0 / core 0 run the primary server, thread 1 / core 1 the
    backup; clients occupy threads 2..  ``fault_plan`` typically crashes
    the primary mid-window: clients time out, back off, fail over to the
    backup, and the run completes with recovery metrics in the result.
    """
    run = build_counter("mp-server-ft", num_clients, cfg=cfg,
                        fault_plan=fault_plan, request_timeout=request_timeout)
    name = "mp-server-ft" + ("-faulty" if fault_plan else "")
    return run.closed_loop(spec or WorkloadSpec(), name)


def run_cs_length_benchmark(
    approach: str,
    num_threads: int,
    cs_iterations: int,
    *,
    spec: Optional[WorkloadSpec] = None,
    cfg: Optional[MachineConfig] = None,
    max_ops: int = 200,
) -> RunResult:
    """Figure 4c: a CS that increments array elements in a loop."""
    spec = spec or WorkloadSpec()
    machine = Machine(cfg or tile_gx())
    optable = OpTable()
    prim, tids = build_approach(approach, machine, optable, num_threads, max_ops=max_ops)
    arr = ArrayCS(prim)
    prim.start()
    ctxs = [machine.thread(tid) for tid in tids]

    def make_op(ctx: ThreadCtx):
        def op(k: int):
            yield from arr.run(ctx, cs_iterations)
        return op

    result = run_workload(machine, ctxs, make_op, spec, name=approach, prim=prim)
    result.extra["cs_iterations"] = cs_iterations
    return result


# ---------------------------------------------------------------------------
# queue (Figure 5a)
# ---------------------------------------------------------------------------

def run_queue_benchmark(
    impl: str = "mp-server-1",
    num_clients: int = 16,
    *,
    spec: Optional[WorkloadSpec] = None,
    cfg: Optional[MachineConfig] = None,
    max_ops: int = 200,
) -> RunResult:
    """Figure 5a: 64-bit-value queues under balanced load.

    Balanced load: every client alternates enqueue and dequeue, so over
    any window enqueues and dequeues are issued in equal numbers.
    """
    spec = spec or WorkloadSpec()
    machine = Machine(cfg or tile_gx())
    prim = None
    limit = machine.cfg.num_cores

    if impl == "mp-server-2":
        if num_clients + 2 > limit:
            raise ValueError(f"{num_clients} clients + two servers exceed {limit} cores")
        enq_prim = MPServer(machine, OpTable(), server_tid=0, server_core=0)
        deq_prim = MPServer(machine, OpTable(), server_tid=1, server_core=1)
        queue = TwoLockMSQueue(enq_prim, deq_prim)
        enq_prim.start()
        deq_prim.start()
        tids = list(range(2, num_clients + 2))
    elif impl == "LCRQ":
        if num_clients > limit:
            raise ValueError(f"{num_clients} clients exceed {limit} cores")
        queue = LCRQ(machine)
        tids = list(range(num_clients))
    else:
        base = impl[:-2] if impl.endswith("-1") else impl
        optable = OpTable()
        prim, tids = build_approach(base, machine, optable, num_clients, max_ops=max_ops)
        queue = OneLockMSQueue(prim)
        prim.start()

    ctxs = [machine.thread(tid) for tid in tids]
    empties = {"n": 0}
    make_op = _alternating(queue.enqueue, queue.dequeue, empties)
    result = run_workload(machine, ctxs, make_op, spec, name=impl, prim=prim)
    result.extra["empty_dequeues"] = empties["n"]
    return result


# ---------------------------------------------------------------------------
# stack (Figure 5b)
# ---------------------------------------------------------------------------

def run_stack_benchmark(
    impl: str = "mp-server",
    num_clients: int = 16,
    *,
    spec: Optional[WorkloadSpec] = None,
    cfg: Optional[MachineConfig] = None,
    max_ops: int = 200,
) -> RunResult:
    """Figure 5b: coarse-lock stacks vs Treiber under balanced load."""
    spec = spec or WorkloadSpec()
    machine = Machine(cfg or tile_gx())
    prim = None

    if impl == "Treiber":
        if num_clients > machine.cfg.num_cores:
            raise ValueError("too many clients")
        stack = TreiberStack(machine)
        tids = list(range(num_clients))
    else:
        optable = OpTable()
        prim, tids = build_approach(impl, machine, optable, num_clients, max_ops=max_ops)
        stack = LockedStack(prim)
        prim.start()

    ctxs = [machine.thread(tid) for tid in tids]
    empties = {"n": 0}
    make_op = _alternating(stack.push, stack.pop, empties)
    result = run_workload(machine, ctxs, make_op, spec, name=impl, prim=prim)
    result.extra["empty_pops"] = empties["n"]
    return result
