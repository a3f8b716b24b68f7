"""One repetition of one workload, in a fresh interpreter.

Run as ``python -m benchmarks.e2e.child '<job json>'`` (the orchestrator
in :mod:`benchmarks.e2e.cli` does this once per repetition).  The job is
a :meth:`~benchmarks.e2e.spec.Workload.job` dict plus ``"profile"``.
The child builds the machine, primitive and threads from public
constructors, runs the workload, reads the layer registers back, checks
the program's outputs, and prints one line starting with
:data:`RESULT_TAG` followed by a JSON object.

Set-up is timed from just after the host-speed probe is built, before
anything else is imported, so import cost counts as set-up; it ends when
the run is ready to start.  Both set-up and run are reported in host
seconds (see :mod:`benchmarks.e2e.hostspeed`), with the run's raw wall
time and host speed beside them.
"""

from benchmarks.e2e import hostspeed
import time

_T0 = time.perf_counter()

import cProfile  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import pstats  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from typing import Any, Callable, Dict, List  # noqa: E402

from benchmarks.e2e.layers import fold_profile  # noqa: E402
from benchmarks.e2e.spec import RESULT_TAG  # noqa: E402

#: the overload experiment's retry arm (repro.experiments.overload).
#: Copied rather than imported: that import loads the experiment
#: registry, 43 more modules and ~35 ms, into overload-mp's set-up.
QUEUE_CAPACITY = 16
DISPATCH_TIMEOUT = 2_000
BREAKER_THRESHOLD = 4
SLO_CYCLES = 20_000
#: the loose op-latency objective ``repro report`` monitors on closed loops
REPORT_SLO_CYCLES = 100_000.0


def _digest(result) -> str:
    """Short hash of every latency sample and per-thread op count."""
    h = hashlib.sha256()
    h.update(json.dumps(result.per_thread_ops).encode())
    h.update(json.dumps(result.latency_samples or []).encode())
    return h.hexdigest()[:16]


def _per_op(x: float, ops: int) -> float:
    return x / ops if ops else 0.0


def _layer_counts(machine, result, committed: int) -> Dict[str, float]:
    """Deterministic per-layer counts from public registers (whole run)."""
    cores = machine.cores
    tot = {name: sum(getattr(c, name) for c in cores)
           for name in ("busy", "wait", "loads", "stores", "rmr", "atomic_ops",
                        "cas_ops", "cas_failures", "stall_mem",
                        "stall_atomic", "stall_fence", "msgs_sent")}
    d = machine.mem.directory_stats()
    udn = machine.udn
    noc = machine.contended_mesh
    packets = noc.packets_delivered if noc is not None else 0
    ob = machine.obs
    x = result.extra
    return {
        "sim.events_per_op": _per_op(machine.sim.events_processed, committed),
        "machine.busy_cycles_per_op": _per_op(tot["busy"], committed),
        "machine.wait_cycles_per_op": _per_op(tot["wait"], committed),
        "mem.loads_per_op": _per_op(tot["loads"], committed),
        "mem.stores_per_op": _per_op(tot["stores"], committed),
        "mem.rmr_per_op": _per_op(tot["rmr"], committed),
        "mem.atomics_per_op": _per_op(tot["atomic_ops"], committed),
        "mem.cas_fail_ratio": _per_op(tot["cas_failures"], tot["cas_ops"]),
        "mem.stall_cycles_per_op": _per_op(tot["stall_mem"], committed),
        "mem.atomic_stall_cycles_per_op": _per_op(tot["stall_atomic"],
                                                  committed),
        "mem.fence_stall_cycles_per_op": _per_op(tot["stall_fence"],
                                                 committed),
        "mem.dir_peak_entries": float(d["peak_entries"]),
        "mem.dir_nominal_bytes": float(d["nominal_bytes"]),
        "udn.msgs_per_op": _per_op(tot["msgs_sent"], committed),
        "udn.backpressure_cycles_per_op": _per_op(
            udn.backpressure_cycles if udn is not None else 0, committed),
        "noc.packets_per_op": _per_op(packets, committed),
        "noc.link_wait_per_packet": _per_op(
            noc.total_link_wait if noc is not None else 0, packets),
        "noc.flit_cycles_per_op": _per_op(
            noc.total_flit_cycles if noc is not None else 0, committed),
        "core.service_cycles_per_op": result.service_cycles_per_op,
        "core.service_stall_per_op": result.service_stall_per_op,
        "core.combining_rate": result.combining_rate or 0.0,
        "workload.admit_wait_cycles": x.get("ol.mean_admit_wait", 0.0),
        "workload.qdepth_mean": x.get("ol.qdepth_mean", 0.0),
        "workload.dispatch_timeouts": x.get("ol.timeouts", 0.0),
        "obs.bus_events_per_op": _per_op(
            ob.bus.events_emitted if ob is not None else 0, committed),
    }


def run_job(job: Dict[str, Any]) -> Dict[str, Any]:
    """Build, run, read back and check one workload repetition.

    The host-speed probe runs throughout, except in a profiled
    repetition, whose profile it would join.
    """
    with nullcontext() if job["profile"] else hostspeed.probing():
        return _run_job(job)


def _run_job(job: Dict[str, Any]) -> Dict[str, Any]:
    from repro import obs
    from repro.core import OpTable
    from repro.machine import Machine
    from repro.machine.config import mesh_profile, tile_gx
    from repro.objects import LockedCounter
    from repro.workload.scenarios import build_approach

    # what ``python -m repro report`` turns on for a closed-loop figure
    session = (obs.observed(timeseries=True,
                            slos=(obs.SLO("op-p99", kind="latency",
                                          target=REPORT_SLO_CYCLES),),
                            flight=True, spatial=True, spatial_hops=True)
               if job["observed"] else nullcontext())
    with session:
        mesh = job["mesh"]
        cfg = (tile_gx() if mesh is None
               else mesh_profile(mesh[0], mesh[1], contended_noc=True))
        machine = Machine(cfg)
        optable = OpTable()
        prim, tids = build_approach(job["approach"], machine, optable,
                                    job["clients"])
        counter = LockedCounter(prim)
        # the counter's own critical section, plus a zero-cost record of
        # each pre-increment value in execution order (the mutual
        # exclusion check below)
        applied: List[int] = []

        def counted_inc(ctx, arg):
            v = yield from counter._inc_body(ctx, arg)
            applied.append(v)
            return v

        opcode = optable.register(counted_inc, "counter_inc")
        prim.start()
        ctxs = [machine.thread(t, core_id=t * job["core_stride"])
                for t in tids]
        run, returned = _driver(job, machine, ctxs, prim, opcode)
        t_ready = time.perf_counter()

        prof = cProfile.Profile() if job["profile"] else None
        result = prof.runcall(run) if prof is not None else run()
        t_done = time.perf_counter()

    setup_s, _ = hostspeed.host_seconds(_T0, t_ready)
    run_s, speed = hostspeed.host_seconds(t_ready, t_done)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    committed = counter.value()
    shed = result.shed_ops
    out: Dict[str, Any] = {
        "setup_s": setup_s,
        "run_s": run_s,
        "wall_s": t_done - t_ready,
        "host_speed": speed,
        "peak_rss_mb": rss_mb,
        "sim": {
            "ops": result.ops,
            "counter_value": committed,
            "events": machine.sim.events_processed,
            "mops": result.goodput_mops,
            "p50": result.p50_latency_cycles,
            "p99": result.p99_latency_cycles,
            "shed": shed,
            "attempted": result.ops + shed,
            "samples": len(result.latency_samples or ()),
            "digest": _digest(result),
        },
        "counts": _layer_counts(machine, result, committed),
        "checks": _check(machine, applied, returned, committed, result,
                         job["clients"]),
    }
    if prof is not None:
        out["layers"] = fold_profile(pstats.Stats(prof).stats, committed)
    return out


def _driver(job, machine, ctxs, prim, opcode
            ) -> "tuple[Callable[[], Any], List[int]]":
    """The run as a no-argument callable, and the list of client results.

    Closed loops go through ``run_workload``, open loops through
    ``run_openloop_workload``; both are exactly what the fig3/scale and
    overload experiments call.
    """
    returned: List[int] = []
    name = job["name"]
    if job["offered_mops"] is None:
        from repro.workload.driver import WorkloadSpec, run_workload

        spec = WorkloadSpec(warmup_cycles=job["warmup_cycles"],
                            measure_cycles=job["measure_cycles"],
                            seed=job["seed"])

        def make_op(ctx):
            def op(k):
                v = yield from prim.apply_op(ctx, opcode)
                returned.append(v)
            return op

        return (lambda: run_workload(machine, ctxs, make_op, spec, name=name,
                                     prim=prim)), returned

    from repro.workload.openloop import (AdmissionSpec, ArrivalSpec,
                                         OpenLoopSpec, run_openloop_workload)

    gap = len(ctxs) * machine.cfg.clock_mhz / job["offered_mops"]
    spec = OpenLoopSpec(
        arrivals=ArrivalSpec(process="poisson", mean_gap_cycles=gap),
        admission=AdmissionSpec(policy="retry", capacity=QUEUE_CAPACITY,
                                dispatch_timeout_cycles=DISPATCH_TIMEOUT,
                                breaker_threshold=BREAKER_THRESHOLD,
                                slo_cycles=SLO_CYCLES),
        warmup_cycles=job["warmup_cycles"],
        measure_cycles=job["measure_cycles"],
        seed=job["seed"],
    )
    return (lambda: run_openloop_workload(machine, ctxs, prim, opcode, spec,
                                          name=name)), returned


def _check(machine, applied: List[int], returned: List[int], committed: int,
           result, clients: int) -> List[str]:
    """Names of the output checks this repetition failed (empty = pass)."""
    failed = []
    try:
        machine.mem.check_all_swmr()
    except AssertionError:
        failed.append("swmr")
    # under mutual exclusion the increments execute one at a time, so
    # their pre-values in execution order are exactly 0, 1, 2, ...
    if committed != len(applied) or applied != list(range(committed)):
        failed.append("mutual-exclusion")
    if result.ops > committed:
        failed.append("window-ops-exceed-counter")
    if returned:
        # closed loop: every client got a distinct executed value, and
        # at most one op per client was still in flight at the horizon
        if (len(set(returned)) != len(returned) or max(returned) >= committed
                or not 0 <= committed - len(returned) <= clients):
            failed.append("client-results")
    return failed


def main(argv: List[str]) -> int:
    if len(argv) != 1:
        print("usage: python -m benchmarks.e2e.child '<job json>'",
              file=sys.stderr)
        return 2
    out = run_job(json.loads(argv[0]))
    print(RESULT_TAG + json.dumps(out, sort_keys=True), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
