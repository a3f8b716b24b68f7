"""The algorithm × object × fault-plan exploration matrix.

A :class:`Scenario` is a *self-contained, deterministic* run recipe: a
machine, a delegation algorithm (or a direct concurrent object), a set
of bounded client scripts that record a history, structural invariants,
and the sequential spec the history is checked against.  Given the same
scenario and the same schedule policy decisions, a run is bit-identical
-- that is what makes repro bundles replayable.

Oracle layering per run:

1. **exceptions** -- deadlock, protocol give-up, simulator errors;
2. **structural invariants** -- cheap necessary conditions (ticket
   permutation / exactly-once for counters, element conservation for
   containers) that give a crisp first diagnosis;
3. **linearizability** -- the Wing & Gong checker against the object's
   sequential spec (:mod:`repro.analysis.linearizability`).

Scenario-design notes (why the matrix has no false positives):

* HYBCOMB runs with the lease/takeover extension *off*: with leases on,
  a combiner preempted past its lease is overtaken by design, which is
  the documented at-least-once behaviour, not a bug.  The takeover races
  live in the mutation self-test (:mod:`repro.explore.mutations`).
* The fault-tolerant MP-SERVER crash scenario filters out forced
  preemption of the *servers* and of the CS body (``no_preempt_tags``):
  a lease-free primary/backup pair preempted past the client timeout
  can legitimately double-execute (see ``repro.core.mp_server`` docs).
  Message delays and tie-breaks remain fully adversarial, and the crash
  itself is the fault plan's job.
* The counter CS body used here contains a ``sched_point`` *between its
  load and its store* -- so a policy can park a combiner/server in the
  middle of a critical section.  For a correct delegation algorithm
  that is harmless by construction (mutual exclusion); for a broken one
  it turns the race window into duplicate tickets the checker rejects.

Delegation scenarios take their primitive and clients from the approach
table, :func:`repro.workload.scenarios.build_approach`:
``shm-server-cancel`` is ``shm-server`` with ``cancellable=True`` (the
withdrawable-request protocol), ``mp-server-ft`` has a 9,000-cycle
request timeout, and only the mutation's ``hybcomb-buggy`` is built here.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Dict, FrozenSet, Generator, List, Optional, Tuple

import numpy as np

from repro.analysis.linearizability import (
    EMPTY,
    CounterSpec,
    ElimStackSpec,
    History,
    LCRQSpec,
    PoolSpec,
    QueueSpec,
    SequentialSpec,
    StackSpec,
    check_linearizable,
)
from repro.core import OpTable
from repro.explore.policy import SchedulePolicy
from repro.faults import CrashThread, FaultInjector, FaultPlan
from repro.machine import Machine, mesh_profile, tile_gx
from repro.objects import LCRQ, EliminationStack, LockedStack, OneLockMSQueue, TreiberStack
from repro.workload.driver import run_ops
from repro.workload.scenarios import build_approach
from repro.workload.openloop import (
    AdmissionQueue,
    AdmissionSpec,
    ArrivalSpec,
    bounded_source,
    bounded_worker,
)

__all__ = ["Scenario", "Outcome", "run_scenario", "matrix", "scenario_by_id",
           "SMALL_MATRIX", "FULL_MATRIX", "MUTATION_SCENARIO"]


@dataclass(frozen=True)
class Scenario:
    """One deterministic run recipe of the exploration matrix."""

    sid: str                 #: unique id, e.g. ``"HybComb/counter"``
    algo: str                #: delegation algorithm, or ``"direct"``
    obj: str                 #: counter | msqueue | stack | lcrq | treiber | elim | pool
    nthreads: int = 4        #: client threads
    ops_each: int = 6        #: operations per client (x2 for containers)
    seed: int = 1            #: think-time seed
    fault: str = "none"      #: "none" | "crash-server"
    max_ops: int = 200       #: combiner MAX_OPS, where applicable
    #: admission policy in front of each client: "none" keeps the
    #: classic closed-loop scripts; "drop"/"retry" switch to bounded
    #: open-loop source/worker pairs (counter only) where shed ops must
    #: never appear in the linearization
    admission: str = "none"
    #: sched_point tags this scenario zeroes out (documented protocol
    #: limitations, not bugs -- see module docs)
    no_preempt_tags: FrozenSet[str] = field(default_factory=frozenset)
    #: mesh shape (width, height) for big-machine scenarios; ``None``
    #: keeps the classic 6x6 tile_gx machine (and byte-identical replay
    #: of every pre-existing bundle)
    mesh: Optional[Tuple[int, int]] = None


@dataclass
class Outcome:
    """The verdict of one explored run."""

    ok: bool
    kind: str                #: "ok" | "linearizability" | "invariant" | "exception"
    detail: str
    #: completed operations as (tid, op, arg, retval, invoke_t, response_t)
    history: List[Tuple]
    forced_choices: int      #: policy decisions that deviated from default
    trace: List[Tuple[str, int]]   #: full decision trace (replayable)
    events: int = 0          #: engine events the run processed


class _TagFilterPolicy(SchedulePolicy):
    """Wrap a policy, zeroing forced preemptions at forbidden tags.

    The inner policy is still consulted for every decision (so its RNG
    stream stays aligned with unfiltered runs); only the value returned
    to the seam -- and recorded in *this* policy's authoritative trace --
    is filtered.
    """

    def __init__(self, inner: SchedulePolicy, forbidden: FrozenSet[str]):
        super().__init__()
        self.kind = inner.kind
        self.inner = inner
        self.forbidden = frozenset(forbidden)

    def reorder_lane(self, entries: List, now: int) -> List:
        self.points["L"] += 1
        out = self.inner.reorder_lane(entries, now)
        self.trace.append(self.inner.trace[-1])
        return out

    def udn_delay(self, src_node: int, dst_core: int, demux: int,
                  n_words: int, now: int) -> int:
        self.points["U"] += 1
        d = self.inner.udn_delay(src_node, dst_core, demux, n_words, now)
        self.trace.append(("U", d))
        return d

    def preempt(self, tag: str, tid: int, now: int) -> int:
        self.points["P"] += 1
        d = self.inner.preempt(tag, tid, now)
        if tag in self.forbidden:
            d = 0
        self.trace.append(("P", d))
        return d

    def describe(self) -> Dict:
        meta = self.inner.describe()
        meta["filtered_tags"] = sorted(self.forbidden)
        return meta


def _register_counter(machine: Machine, optable: OpTable) -> Tuple[int, int]:
    """Fetch-and-increment CS body with a mid-CS preemption point."""
    addr = machine.mem.alloc(1, isolated=True)

    def fetch_inc(ctx, arg):
        v = yield from ctx.load(addr)
        if ctx.sim.policy is not None:
            # the load/store window: parking the executing thread here is
            # how a mutual-exclusion violation becomes a duplicate ticket
            yield from ctx.sched_point("object.rmw")
        yield from ctx.store(addr, v + 1)
        return v

    opcode = optable.register(fetch_inc, "fetch_inc")
    return addr, opcode


#: algorithm ids that are an approach-table label with constructor keywords
_VARIANTS: Dict[str, Tuple[str, Dict[str, Any]]] = {
    "shm-server-cancel": ("shm-server", {"cancellable": True}),
    "mp-server-ft": ("mp-server-ft", {"request_timeout": 9_000}),
}


def _approach(scn: Scenario, machine: Machine, optable: OpTable):
    """(prim, client tids) for a delegation scenario."""
    if scn.algo == "hybcomb-buggy":
        from repro.explore.mutations import BuggyHybComb
        prim = BuggyHybComb(machine, optable, max_ops=scn.max_ops,
                            lease_cycles=600, request_timeout=1_200)
        return prim, list(range(scn.nthreads))
    label, kw = _VARIANTS.get(scn.algo, (scn.algo, {}))
    return build_approach(label, machine, optable, scn.nthreads,
                          max_ops=scn.max_ops, **kw)


def _client_ctxs(scn: Scenario, machine: Machine,
                 tids: List[int]) -> List[Any]:
    """Thread contexts for the client tids.

    Default placement is the paper's thread-i-on-core-i.  Big-machine
    scenarios (``scn.mesh``) instead stride the clients across the
    whole mesh: packing every client into one corner of a 16x16 mesh
    would leave all the NoC distances the explorer is supposed to
    stress at a hop or two.  Striding by ``ncores // span`` is
    collision-free (every product stays below ``ncores``) and keeps
    clear of the server cores 0/1, which sit below the first stride.
    """
    if scn.mesh is None:
        return [machine.thread(t) for t in tids]
    ncores = machine.cfg.num_cores
    stride = max(1, ncores // (max(tids) + 1))
    return [machine.thread(t, core_id=(t * stride) % ncores) for t in tids]


def run_scenario(scn: Scenario, policy: Optional[SchedulePolicy] = None,
                 *, max_events: int = 5_000_000) -> Outcome:
    """Execute one scenario under ``policy`` and return the verdict."""
    if policy is not None and scn.no_preempt_tags:
        policy = _TagFilterPolicy(policy, scn.no_preempt_tags)
    machine = Machine(tile_gx() if scn.mesh is None else
                      mesh_profile(*scn.mesh))
    machine.sim.max_events = max_events
    machine.sim.policy = policy

    history = History()
    rng = random.Random(scn.seed)
    think_unit = machine.cfg.work_cycles_per_iteration
    invariant_err: List[str] = []
    prims: List[Any] = []

    if scn.obj == "counter":
        optable = OpTable()
        addr, opcode = _register_counter(machine, optable)
        prim, tids = _approach(scn, machine, optable)
        prim.start()
        prims.append(prim)
        tickets: List[int] = []
        ctxs = _client_ctxs(scn, machine, tids)
        spec: SequentialSpec = CounterSpec()

        if scn.admission == "none":
            def script(ctx, thinks):
                for k in range(scn.ops_each):
                    if ctx.sim.policy is not None:
                        yield from ctx.sched_point("script.gap")
                    t0 = machine.now
                    v = yield from prim.apply_op(ctx, opcode, 0)
                    history.record(ctx.tid, "inc", None, v, t0, machine.now)
                    tickets.append(v)
                    yield from ctx.work(thinks[k] * think_unit)

            scripts = [
                (ctx, script(ctx, [rng.randrange(0, 30) for _ in range(scn.ops_each)]))
                for ctx in ctxs
            ]

            def check_invariants():
                total = len(tids) * scn.ops_each
                if sorted(tickets) != list(range(total)):
                    invariant_err.append(
                        f"tickets are not a permutation of 0..{total - 1}: "
                        f"{sorted(tickets)}")
                final = machine.mem.peek(addr)
                if final != total:
                    invariant_err.append(
                        f"final counter {final} != {total} completed ops")
        else:
            # open-loop variant: a bounded source + admission queue +
            # worker per client.  Shed ops (queue-full or retry-exhausted)
            # never reach the primitive / never commit, so the recorded
            # history must linearize and the counter must equal exactly
            # the completed count -- a shed op appearing anywhere breaks
            # one of the oracles.
            adm = _admission_for(scn.admission)
            arrivals = ArrivalSpec(process="poisson", mean_gap_cycles=150.0)
            queues: List[AdmissionQueue] = []
            retry_shed = {"n": 0}

            def on_result(ctx, k, v, t0, t1):
                history.record(ctx.tid, "inc", None, v, t0, t1)
                tickets.append(v)

            def on_shed(ctx, k):
                retry_shed["n"] += 1

            scripts = []
            for ctx in ctxs:
                q = AdmissionQueue(machine, ctx.tid, adm.capacity)
                queues.append(q)
                src_rng = np.random.default_rng([scn.seed, ctx.tid])
                scripts.append(
                    (ctx, bounded_source(ctx, q, arrivals, src_rng,
                                         scn.ops_each)))
                scripts.append(
                    (ctx, bounded_worker(ctx, q, prim, opcode, adm,
                                         on_result=on_result,
                                         on_shed=on_shed)))

            def check_invariants():
                arrivals_total = len(tids) * scn.ops_each
                completed = len(tickets)
                shed_total = sum(q.shed for q in queues) + retry_shed["n"]
                if completed + shed_total != arrivals_total:
                    invariant_err.append(
                        f"{completed} completed + {shed_total} shed != "
                        f"{arrivals_total} arrivals")
                if sorted(tickets) != list(range(completed)):
                    invariant_err.append(
                        f"tickets are not a permutation of 0..{completed - 1}"
                        f" (a shed op executed?): {sorted(tickets)}")
                final = machine.mem.peek(addr)
                if final != completed:
                    invariant_err.append(
                        f"final counter {final} != {completed} completed ops "
                        f"(shed ops must leave no trace)")

    elif scn.obj in ("msqueue", "stack", "lcrq", "treiber", "elim", "pool"):
        pushed: List[int] = []
        popped: List[int] = []
        if scn.algo == "direct":
            if scn.obj == "lcrq":
                obj = LCRQ(machine, ring_size=8)
                push, pop, names = obj.enqueue, obj.dequeue, ("enq", "deq")
                spec = LCRQSpec()
            elif scn.obj == "treiber":
                obj = TreiberStack(machine)
                push, pop, names = obj.push, obj.pop, ("push", "pop")
                spec = StackSpec()
            elif scn.obj == "elim":
                obj = EliminationStack(machine, TreiberStack(machine),
                                       num_slots=2, window_cycles=60,
                                       seed=scn.seed + 77)
                push, pop, names = obj.push, obj.pop, ("push", "pop")
                spec = ElimStackSpec()
            elif scn.obj == "pool":
                # the same elimination front-end, validated against the
                # weaker bag oracle it guarantees when used as a buffer
                obj = EliminationStack(machine, TreiberStack(machine),
                                       num_slots=2, window_cycles=60,
                                       seed=scn.seed + 78)
                push, pop, names = obj.push, obj.pop, ("put", "get")
                spec = PoolSpec()
            else:
                raise ValueError(f"object {scn.obj!r} needs a delegation "
                                 f"algorithm")
            tids = list(range(scn.nthreads))
        else:
            optable = OpTable()
            prim, tids = _approach(scn, machine, optable)
            if scn.obj == "msqueue":
                obj = OneLockMSQueue(prim)
                push, pop, names = obj.enqueue, obj.dequeue, ("enq", "deq")
                spec = QueueSpec()
            elif scn.obj == "stack":
                obj = LockedStack(prim)
                push, pop, names = obj.push, obj.pop, ("push", "pop")
                spec = StackSpec()
            else:
                raise ValueError(f"object {scn.obj!r} is direct-only")
            prim.start()
            prims.append(prim)

        def script(ctx, idx, thinks):
            for k in range(scn.ops_each):
                if ctx.sim.policy is not None:
                    yield from ctx.sched_point("script.gap")
                val = (idx + 1) * 1000 + k
                t0 = machine.now
                yield from push(ctx, val)
                history.record(ctx.tid, names[0], val, None, t0, machine.now)
                pushed.append(val)
                yield from ctx.work(thinks[2 * k] * think_unit)
                t0 = machine.now
                v = yield from pop(ctx)
                history.record(ctx.tid, names[1], None, v, t0, machine.now)
                popped.append(v)
                yield from ctx.work(thinks[2 * k + 1] * think_unit)

        ctxs = _client_ctxs(scn, machine, tids)
        scripts = [
            (ctx, script(ctx, i,
                         [rng.randrange(0, 30) for _ in range(2 * scn.ops_each)]))
            for i, ctx in enumerate(ctxs)
        ]

        def check_invariants():
            got = [v for v in popped if v != EMPTY]
            if len(got) != len(set(got)):
                invariant_err.append(f"an element was popped twice: {sorted(got)}")
            extras = set(got) - set(pushed)
            if extras:
                invariant_err.append(f"elements never pushed: {sorted(extras)}")
    else:
        raise ValueError(f"unknown object {scn.obj!r}")

    if scn.fault == "crash-server":
        plan = FaultPlan(seed=scn.seed,
                         faults=(CrashThread(tid=0, at_cycle=2_500),))
        FaultInjector(machine, plan).install()

    try:
        run_ops(machine, scripts, prims=prims)
    except Exception as exc:  # noqa: BLE001 -- every escape is a finding
        return _outcome(False, "exception", f"{type(exc).__name__}: {exc}",
                        history, policy, machine)

    check_invariants()
    if invariant_err:
        return _outcome(False, "invariant", "; ".join(invariant_err),
                        history, policy, machine)
    try:
        linearizable = check_linearizable(history, spec)
    except RuntimeError as exc:
        return _outcome(False, "exception", f"checker: {exc}", history, policy,
                        machine)
    if not linearizable:
        return _outcome(False, "linearizability",
                        f"no legal linearization of {len(history)} ops "
                        f"against {type(spec).__name__}", history, policy, machine)
    return _outcome(True, "ok", "", history, policy, machine)


def _outcome(ok: bool, kind: str, detail: str, history: History,
             policy: Optional[SchedulePolicy], machine: Machine) -> Outcome:
    return Outcome(
        ok=ok, kind=kind, detail=detail,
        history=[(o.tid, o.op, o.arg, o.retval, o.invoke_t, o.response_t)
                 for o in history.ops],
        forced_choices=policy.forced_choices if policy is not None else 0,
        trace=list(policy.trace) if policy is not None else [],
        events=machine.sim.events_processed,
    )


# -- the matrix ----------------------------------------------------------------

def _scn(algo: str, obj: str, **kw) -> Scenario:
    return Scenario(sid=f"{algo}/{obj}", algo=algo, obj=obj, **kw)


def _admission_for(policy: str) -> AdmissionSpec:
    """Admission specs the matrix scenarios run under (tight on purpose:
    a capacity of 2 and a short dispatch deadline make shedding and
    timed-out dispatches common under forced preemption)."""
    if policy == "drop":
        return AdmissionSpec(policy="drop", capacity=2)
    if policy == "retry":
        return AdmissionSpec(policy="retry", capacity=2,
                             dispatch_timeout_cycles=800, max_retries=2,
                             backoff_base_cycles=64, backoff_cap_cycles=256)
    raise ValueError(f"unknown admission policy {policy!r}")


SMALL_MATRIX: List[Scenario] = [
    _scn("mp-server", "counter", nthreads=4, ops_each=6),
    _scn("shm-server", "counter", nthreads=4, ops_each=6),
    _scn("HybComb", "counter", nthreads=5, ops_each=6, max_ops=3),
    _scn("CC-Synch", "counter", nthreads=5, ops_each=6, max_ops=3),
    _scn("flat-combining", "counter", nthreads=4, ops_each=6),
    _scn("HybComb", "msqueue", nthreads=4, ops_each=5, max_ops=3),
    _scn("CC-Synch", "stack", nthreads=4, ops_each=5, max_ops=3),
    _scn("direct", "lcrq", nthreads=4, ops_each=5),
    _scn("direct", "treiber", nthreads=4, ops_each=5),
    _scn("direct", "pool", nthreads=4, ops_each=5),
]

FULL_MATRIX: List[Scenario] = SMALL_MATRIX + [
    _scn("mp-server", "msqueue", nthreads=4, ops_each=5),
    _scn("mp-server", "stack", nthreads=4, ops_each=5),
    _scn("shm-server", "msqueue", nthreads=4, ops_each=5),
    _scn("shm-server", "stack", nthreads=4, ops_each=5),
    _scn("HybComb", "stack", nthreads=4, ops_each=5, max_ops=3),
    _scn("CC-Synch", "msqueue", nthreads=4, ops_each=5, max_ops=3),
    _scn("flat-combining", "msqueue", nthreads=4, ops_each=5),
    _scn("flat-combining", "stack", nthreads=4, ops_each=5),
    _scn("direct", "elim", nthreads=4, ops_each=5),
    Scenario(sid="mp-server-ft/counter@crash", algo="mp-server-ft",
             obj="counter", nthreads=4, ops_each=6, fault="crash-server",
             no_preempt_tags=frozenset({"mp_server.poll", "object.rmw"})),
    # overload admission under forced preemption: shed ops must never
    # appear in the linearization (bounded-drop on a combiner, and
    # timed-dispatch retry racing the cancellable SHM-SERVER's claim CAS)
    Scenario(sid="HybComb/counter@drop", algo="HybComb", obj="counter",
             nthreads=4, ops_each=6, max_ops=3, admission="drop"),
    Scenario(sid="shm-server-cancel/counter@retry", algo="shm-server-cancel",
             obj="counter", nthreads=4, ops_each=6, admission="retry"),
    # big-machine scenarios: the same oracles on a 16x16 (256-core)
    # mesh with clients strided across the whole fabric, so forced UDN
    # delays and lane reorders act on genuinely long NoC paths.  These
    # are the schedule-exploration counterpart of the `scale` figure.
    Scenario(sid="HybComb/counter@256", algo="HybComb", obj="counter",
             nthreads=10, ops_each=4, max_ops=3, mesh=(16, 16)),
    Scenario(sid="mp-server-ft/msqueue@256crash", algo="mp-server-ft",
             obj="msqueue", nthreads=6, ops_each=4, fault="crash-server",
             mesh=(16, 16),
             no_preempt_tags=frozenset({"mp_server.poll"})),
]

#: the seeded-bug scenario of the mutation self-test (never in the
#: default matrices -- it is SUPPOSED to fail)
MUTATION_SCENARIO = Scenario(sid="hybcomb-buggy/counter", algo="hybcomb-buggy",
                             obj="counter", nthreads=5, ops_each=2, max_ops=2)


def matrix(name: str) -> List[Scenario]:
    if name == "small":
        return list(SMALL_MATRIX)
    if name == "full":
        return list(FULL_MATRIX)
    raise ValueError(f"unknown matrix {name!r} (expected 'small' or 'full')")


def scenario_by_id(sid: str) -> Scenario:
    """Resolve a scenario id (used by bundle replay)."""
    for scn in FULL_MATRIX + [MUTATION_SCENARIO]:
        if scn.sid == sid:
            return scn
    raise KeyError(f"unknown scenario id {sid!r}")
