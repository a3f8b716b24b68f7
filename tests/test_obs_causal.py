"""Tests for per-op causal tracing: the event log + Perfetto flows.

The core guarantee under test is *cycle-exactness*: for every completed
operation, the blame categories painted by the critical-path analysis
partition the op's ``[t0, t1)`` interval, so they sum to the measured
latency with zero slack -- and the latencies reconstructed from the
event stream are the exact multiset the driver itself measured.
"""

import json

import pytest

import repro.obs as obs
from repro.analysis.critpath import CATEGORIES, CAUSAL_KINDS, analyze_collector
from repro.obs.bus import EventBus, EventLog
from repro.obs.perfetto import TRACE_KINDS, write_chrome_trace
from repro.workload.driver import WorkloadSpec
from repro.workload.scenarios import run_counter_benchmark
from tests.helpers import ev

SPEC = WorkloadSpec(warmup_cycles=5_000, measure_cycles=15_000)
APPROACHES = ("mp-server", "shm-server", "HybComb", "CC-Synch")


def _causal_run(approach, threads=5, spec=SPEC):
    with obs.observed(trace=True) as session:
        r = run_counter_benchmark(approach, threads, spec=spec)
    (ob,) = session.machines
    return r, ob


# -- cycle-exact blame ------------------------------------------------------

@pytest.mark.parametrize("approach", APPROACHES)
def test_blame_partitions_latency_exactly(approach):
    r, ob = _causal_run(approach)
    rep = analyze_collector(ob.trace, label=approach)
    assert rep.ops, "no completed ops reconstructed"
    for o in rep.ops:
        assert sum(o.blame.values()) == o.latency, (
            f"op {o.op}: blame {o.blame} does not sum to latency {o.latency}"
        )


@pytest.mark.parametrize("approach", APPROACHES)
def test_segments_partition_the_op_interval(approach):
    _r, ob = _causal_run(approach)
    rep = analyze_collector(ob.trace, label=approach)
    for o in rep.ops:
        assert o.segments[0][0] == o.t0
        assert o.segments[-1][1] == o.t1
        for (s0, e0, c0), (s1, _e1, c1) in zip(o.segments, o.segments[1:]):
            assert e0 == s1, "gap or overlap between segments"
            assert c0 != c1, "uncompressed adjacent segments"
        assert all(cat in CATEGORIES for _s, _e, cat in o.segments)


@pytest.mark.parametrize("approach", APPROACHES)
def test_reconstructed_latencies_match_driver_samples(approach):
    r, ob = _causal_run(approach)
    rep = analyze_collector(ob.trace, label=approach)
    got = sorted(o.latency for o in rep.measured_ops)
    want = sorted(r.latency_samples)
    assert got == want, (
        f"causal reconstruction disagrees with the driver: "
        f"{len(got)} vs {len(want)} measured ops"
    )


def test_whole_run_path_exists_and_is_labelled():
    _r, ob = _causal_run("mp-server")
    rep = analyze_collector(ob.trace, label="mp-server")
    assert rep.path, "empty whole-run critical path"
    assert rep.path_cycles > 0
    assert sum(rep.path_blame.values()) == rep.path_cycles
    assert rep.path_dominant in CATEGORIES
    # the path is a forward-in-time chain
    starts = [s for _o, s, _e, _c in rep.path]
    assert starts == sorted(starts)


def test_in_flight_ops_at_window_end_are_counted_incomplete():
    _r, ob = _causal_run("mp-server", threads=4)
    rep = analyze_collector(ob.trace)
    # each app thread has at most one op open when the run stops
    assert 0 <= rep.incomplete_ops <= 4


# -- event log behaviour ----------------------------------------------------

def test_event_log_truncates_at_limit_and_flags_it():
    log = EventLog(limit=5)
    assert not log.truncated
    for i in range(9):
        log.on_event(*ev(i, "op.begin", op=i, core=0, tid=0, prim="x"))
    assert len(log.events) == 5
    assert log.dropped == 4
    assert log.truncated
    rep = analyze_collector(log)
    assert rep.truncated


def test_event_log_records_only_trace_kinds():
    """The log subscribes to the kinds its readers use; the causal
    kinds the critical path reads are among them."""
    assert CAUSAL_KINDS <= TRACE_KINDS
    with obs.observed(trace=True) as session:
        run_counter_benchmark("mp-server", 3, spec=SPEC)
    (ob,) = session.machines
    kinds = {k for _t, k, _f in ob.trace.events}
    assert kinds <= TRACE_KINDS
    assert {"op.begin", "op.end", "udn.send", "server.done"} <= kinds
    assert ob.trace.dropped == 0


class _Clock:
    now = 0


def test_bus_hands_each_emit_a_fresh_dict():
    """Two emits hand subscribers distinct argument tuples (events carry
    no dict), so the log keeps each event's values without copying."""
    bus = EventBus(_Clock())
    log = EventLog()
    seen = []
    bus.subscribe(lambda t, k, args: seen.append(args))
    bus.subscribe_kinds(("op.begin",), log.on_event)
    first = ev(0, "op.begin", op=1, core=0, tid=0, prim="x")
    second = ev(7, "op.begin", op=2, core=1, tid=1, prim="x")
    bus.emit(first[1], *first[2])
    bus.sim.now = 7
    bus.emit(second[1], *second[2])
    assert seen[0] is not seen[1]
    assert log.events == [first, second]


def test_causal_tracing_is_a_pure_observer():
    base = run_counter_benchmark("HybComb", 5, spec=SPEC)
    traced, _ob = _causal_run("HybComb")
    assert traced.ops == base.ops
    assert traced.per_thread_ops == base.per_thread_ops
    assert traced.latency_samples == base.latency_samples


# -- Perfetto flow events ---------------------------------------------------

def _flow_chains(trace_doc):
    """flow_id -> list of (phase, tid, ts) sorted by ts."""
    chains = {}
    for ev in trace_doc["traceEvents"]:
        if ev.get("ph") in ("s", "t", "f") and ev.get("name") == "op-flow":
            chains.setdefault(ev["id"], []).append(
                (ev["ph"], ev["tid"], ev["ts"]))
    for c in chains.values():
        c.sort(key=lambda x: x[2])
    return chains


@pytest.mark.parametrize("approach", APPROACHES)
def test_trace_contains_complete_flow_chains(approach, tmp_path):
    _r, ob = _causal_run(approach)
    path = tmp_path / "trace.json"
    write_chrome_trace([ob.record()], str(path))
    doc = json.loads(path.read_text())
    chains = _flow_chains(doc)
    full = [c for c in chains.values()
            if [p for p, _t, _ts in c][0] == "s" and
            any(p == "t" for p, _t, _ts in c) and
            c[-1][0] == "f"]
    assert full, f"no complete s->t->f flow chain for {approach}"
    # the "f" binding is marked as enclosing-slice per the trace format
    fins = [ev for ev in doc["traceEvents"]
            if ev.get("ph") == "f" and ev.get("name") == "op-flow"]
    assert fins and all(ev.get("bp") == "e" for ev in fins)


@pytest.mark.parametrize("approach", ("mp-server", "shm-server"))
def test_server_flows_cross_cores(approach, tmp_path):
    """For dedicated-server algorithms, an op's flow must hop from the
    client core's track to the server core's track and back."""
    _r, ob = _causal_run(approach)
    path = tmp_path / "trace.json"
    write_chrome_trace([ob.record()], str(path))
    chains = _flow_chains(json.loads(path.read_text()))
    crossing = 0
    for c in chains.values():
        tids = {tid for p, tid, _ts in c if p == "t"}
        start = [tid for p, tid, _ts in c if p == "s"]
        if start and tids and tids != set(start):
            crossing += 1
    assert crossing > 0, f"no cross-core flow chains for {approach}"
