"""Shared fixtures/helpers for the algorithm and object test modules."""

from __future__ import annotations

import numpy as np

from repro.analysis.linearizability import History
from repro.core import CCSynch, HybComb, MPServer, OpTable, ShmServer
from repro.machine import Machine, tile_gx
from repro.obs.bus import SCHEMA, EventLog
from repro.workload.driver import run_ops


def ev(t: int, kind: str, **fields):
    """One bus event ``(cycle, kind, args)`` built from named fields.

    Fills the positions from :data:`repro.obs.bus.SCHEMA`; a missing or
    unknown field name raises, so a hand-built event always has the
    shape the simulator emits.
    """
    names = SCHEMA[kind][1]
    if set(fields) != set(names):
        raise ValueError(
            f"{kind} takes fields {names}, got {tuple(sorted(fields))}")
    return t, kind, tuple(fields[n] for n in names)


def log_of(events, limit: int = 2_000_000) -> EventLog:
    """An :class:`~repro.obs.bus.EventLog` that recorded ``events``
    (``(cycle, kind, args)`` triples) in order."""
    log = EventLog(limit=limit)
    for t, kind, args in events:
        log.on_event(t, kind, args)
    return log


def make_counter(machine: Machine, optable: OpTable):
    """Register a fetch-and-increment CS body; returns (addr, opcode).

    The return values of concurrent fetch-and-increments are a strong
    linearizability probe: across all threads they must be exactly
    {0, 1, ..., total-1} with no duplicates.
    """
    addr = machine.mem.alloc(1, isolated=True)

    def fetch_inc(ctx, arg):
        v = yield from ctx.load(addr)
        yield from ctx.store(addr, v + 1)
        return v

    opcode = optable.register(fetch_inc, "fetch_inc")
    return addr, opcode


def build(prim_name: str, num_clients: int, *, max_ops: int = 200, debug: bool = True,
          seed: int = 1, cfg=None):
    """Assemble a machine + primitive + counter op for protocol tests.

    Returns (machine, prim, counter_addr, opcode, client_ctxs).
    """
    machine = Machine(cfg if cfg is not None else tile_gx(debug_checks=debug))
    optable = OpTable()
    addr, opcode = make_counter(machine, optable)
    if prim_name == "mp-server":
        prim = MPServer(machine, optable, server_tid=0)
        client_tids = range(1, num_clients + 1)
    elif prim_name == "shm-server":
        prim = ShmServer(machine, optable, server_tid=0,
                         client_tids=range(1, num_clients + 1))
        client_tids = range(1, num_clients + 1)
    elif prim_name == "HybComb":
        prim = HybComb(machine, optable, max_ops=max_ops)
        client_tids = range(num_clients)
    elif prim_name == "CC-Synch":
        prim = CCSynch(machine, optable, max_ops=max_ops)
        client_tids = range(num_clients)
    else:
        raise ValueError(prim_name)
    prim.start()
    ctxs = [machine.thread(tid) for tid in client_tids]
    return machine, prim, addr, opcode, ctxs


def run_clients(machine, prim, opcode, ctxs, ops_each: int, *, seed: int = 1,
                think_max: int = 50):
    """Run the paper's benchmark loop on every client; returns results.

    Each client repeatedly applies the op, then executes a random number
    of empty-loop iterations (at most ``think_max``), per Section 5.2.
    Returns a list (per client) of lists of return values.
    """
    rng = np.random.default_rng(seed)
    think = machine.cfg.work_cycles_per_iteration
    results = [[] for _ in ctxs]

    def client(i, ctx, thinks):
        for k in range(ops_each):
            v = yield from prim.apply_op(ctx, opcode, 0)
            results[i].append(v)
            yield from ctx.work(int(thinks[k]) * think)

    scripts = [
        (ctx, client(i, ctx, rng.integers(0, think_max + 1, size=ops_each)))
        for i, ctx in enumerate(ctxs)
    ]
    run_ops(machine, scripts, prims=(prim,))
    return results


def record_counter_history(prim_name: str, nthreads: int, ops_each: int,
                           seed: int, *, think_max: int = 60) -> History:
    """Run a counter workload and record its concurrent history.

    The single source of the history-recording loop the linearizability
    and property tests share: each client timestamps its invocation and
    response around ``apply_op`` and records an "inc" operation, giving
    a :class:`~repro.analysis.linearizability.History` ready for
    ``check_linearizable(h, CounterSpec())``.
    """
    machine, prim, _addr, opcode, ctxs = build(prim_name, nthreads, debug=False)
    history = History()
    rng = np.random.default_rng(seed)

    def client(ctx, thinks):
        for k in range(ops_each):
            t0 = machine.now
            v = yield from prim.apply_op(ctx, opcode, 0)
            history.record(ctx.tid, "inc", None, v, t0, machine.now)
            yield from ctx.work(int(thinks[k]))

    scripts = [(ctx, client(ctx, rng.integers(0, think_max, ops_each)))
               for ctx in ctxs]
    run_ops(machine, scripts, prims=(prim,))
    return history


def oracle_counters(ob):
    """Subscribe the bus-fed reference counter file beside ``ob``'s own.

    ``tests/counters_oracle.py`` rebuilds every register from bus
    events, independently of the hardware models' direct writes.
    """
    from repro.obs.bus import KINDS
    from tests.counters_oracle import PerfCounters

    ref = PerfCounters(ob.machine)
    ob.bus.subscribe_kinds(sorted(KINDS), ref.on_event)
    return ref


def attach_oracles(monkeypatch, on_attach=oracle_counters):
    """Run ``on_attach(ob)`` for every machine an ``obs`` session attaches.

    Returns the list the results are appended to, in attach order.
    """
    import repro.obs as obs

    out = []
    attach = obs.attach

    def attach_with_oracle(machine):
        ob = attach(machine)
        if ob is not None:
            out.append(on_attach(ob))
        return ob

    monkeypatch.setattr(obs, "attach", attach_with_oracle)
    return out


def assert_event_stalls_equal_hw(ref) -> None:
    """The double-count guard: the oracle's event-derived stall
    registers equal the cores' own hardware stall registers exactly."""
    snap = ref.snapshot()
    for cid, hw in snap["hw"].items():
        ev = snap["core"].get(cid, {})
        for reg in ("stall_mem", "stall_atomic", "stall_fence"):
            assert ev.get(reg, 0) == hw[reg], (cid, reg)


def tiny_experiment(quick=True, jobs=None):
    """Stub registry entry for runner tests: one short mp-server point."""
    from repro.analysis.series import FigureData
    from repro.workload import WorkloadSpec
    from repro.workload.scenarios import run_counter_benchmark

    spec = WorkloadSpec(warmup_cycles=5_000, measure_cycles=30_000)
    fig = FigureData("tiny", "tiny shootout", "threads", "Mops/s")
    fig.add_point("mp-server", 4.0,
                  run_counter_benchmark("mp-server", 4, spec=spec))
    fig.note("stub experiment for CLI tests")
    return fig
