"""Tests for the observability subsystem: event bus + perf counters."""

import tracemalloc

import pytest

import repro.obs as obs
from repro.core import CCSynch, HybComb, MPServer, OpTable
from repro.machine import Machine, tile_gx
from repro.obs.bus import KINDS
from repro.obs.counters import latency_bucket, merge_counters
from tests.helpers import assert_event_stalls_equal_hw, oracle_counters


def _counter_body(table, machine):
    a = machine.mem.alloc(1)

    def body(c, arg):
        v = yield from c.load(a)
        yield from c.store(a, v + arg)
        return v + arg

    return table.register(body), a


# -- bus basics ------------------------------------------------------------

def test_obs_off_by_default():
    m = Machine(tile_gx())
    assert m.sim.obs is None
    assert m.obs is None


def test_enable_observability_idempotent():
    m = Machine(tile_gx())
    ob = m.enable_observability()
    assert m.sim.obs is ob.bus
    assert m.enable_observability() is ob


def test_double_enable_raises():
    m = Machine(tile_gx())
    m.enable_observability()
    with pytest.raises(RuntimeError):
        obs.Observability(m)


@pytest.mark.parametrize("option, value", [
    ("trace_limit", -1), ("flight_limit", 0), ("sample_every", 0)])
def test_negative_caps_rejected_naming_the_option(option, value):
    with pytest.raises(ValueError, match=option):
        with obs.observed(**{option: value}):
            pass
    with pytest.raises(ValueError, match=option):
        Machine(tile_gx()).enable_observability(
            flight=True, **{option: value})
    assert obs._SESSION is None


@pytest.mark.parametrize("options", [
    {"bogus": True}, {"ts_buckets": 64}, {"label": "x"},
    {"trace": True, "trace_limit": -1}])
def test_session_options_checked_when_the_session_starts(options):
    """Unknown names and out-of-range caps fail at observed(), before
    any machine is built."""
    error = ValueError if "trace_limit" in options else TypeError
    with pytest.raises(error):
        with obs.observed(**options):
            pass
    assert obs._SESSION is None


def test_session_passes_its_options_to_each_machine():
    slo = obs.SLO("op-p99", kind="latency", target=2_000.0)
    with obs.observed(trace=True, trace_limit=7, sample_every=128,
                      slos=(slo,), flight=True, flight_limit=16,
                      spatial_hops=True) as session:
        m = Machine(tile_gx())
    assert session.machines == [m.obs]
    ob = m.obs
    assert ob.trace.limit == 7 and ob.sampler.every == 128
    assert [s.name for s in ob.slo.slos] == ["op-p99"]
    assert ob.flight.events.maxlen == 16
    assert ob.spatial.record_hops


def test_zero_caps_keep_nothing():
    with obs.observed(trace=True, trace_limit=0, spatial_hops=True):
        m = Machine(tile_gx())
    t0, t1 = m.thread(0), m.thread(1)

    def ping():
        yield from t0.send(1, [1])

    def pong():
        yield from t1.receive(1)

    m.spawn(t0, ping())
    m.spawn(t1, pong())
    m.run()
    assert m.obs.trace.events == [] and m.obs.trace.dropped > 0
    # the per-message records come from the (empty) log; the totals
    # are counted inline
    assert m.obs.spatial.hop_records(m.obs.trace) == []
    assert m.obs.spatial.summary()["hops"]["messages"] == 1


def test_bus_emit_and_subscribe():
    m = Machine(tile_gx())
    ob = m.enable_observability()
    seen = []
    ob.bus.subscribe_kinds(sorted(KINDS),
                           lambda t, kind, f: seen.append((t, kind, f)))

    def prog(ctx):
        yield from ctx.load(m.mem.alloc(1))

    ctx = m.thread(0)
    m.spawn(ctx, prog(ctx))
    m.run()
    kinds = [k for _t, k, _f in seen]
    assert "proc.spawn" in kinds
    assert "cache.miss" in kinds
    assert "proc.exit" in kinds
    assert ob.bus.events_emitted == len(seen)
    # timestamps are the simulator clock and never decrease
    times = [t for t, _k, _f in seen]
    assert times == sorted(times)


def test_event_log_keeps_no_dict_per_event():
    """A recorded event is the emit's own argument tuple wrapped in a
    ``(cycle, kind, args)`` triple: no per-event dict (288 B/event when
    events carried keyword dicts)."""
    m = Machine(tile_gx())
    ob = m.enable_observability(trace=True)
    emit = ob.bus.emit
    n = 20_000
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for i in range(n):
            emit("udn.send", 1, 0, 0, 3, 1_000 + i)
        per_event = (tracemalloc.get_traced_memory()[0] - before) / n
    finally:
        tracemalloc.stop()
    assert len(ob.trace.events) == n
    assert per_event <= 200, f"{per_event:.0f} B per recorded event"


def test_observed_session_auto_attaches_machines():
    with obs.observed() as session:
        m1 = Machine(tile_gx())
        m2 = Machine(tile_gx())
    assert len(session.machines) == 2
    assert m1.obs is not None and m2.obs is not None
    # session closed: new machines no longer attach
    m3 = Machine(tile_gx())
    assert m3.obs is None


def test_full_stack_record_survives_a_pickle_round_trip():
    """A record is what a sweep worker sends its parent: every layer of
    the report stack plus the event log must cross a pickle intact."""
    import dataclasses
    import pickle

    from repro.workload import WorkloadSpec
    from repro.workload.scenarios import run_counter_benchmark

    slo = obs.SLO("op-p50-1cyc", kind="latency", target=1.0, quantile=0.5)
    with obs.observed(trace=True, timeseries=True, sample_every=256,
                      slos=(slo,), flight=True, spatial_hops=True) as session:
        run_counter_benchmark("mp-server", 4, spec=WorkloadSpec(
            warmup_cycles=2_000, measure_cycles=10_000))
    (rec,) = session.records()
    assert rec.trace.events and rec.incidents and rec.slo_events
    assert rec.spatial["hops"]["messages"] > 0 and rec.breaches >= 1
    back = pickle.loads(pickle.dumps(rec))
    for f in dataclasses.fields(rec):
        if f.name not in ("timeseries", "trace"):
            assert getattr(back, f.name) == getattr(rec, f.name), f.name
    assert back.trace.events == rec.trace.events
    assert back.trace.dropped == rec.trace.dropped
    series = rec.timeseries["series"]
    assert {n: ts.to_dict() for n, ts in back.timeseries["series"].items()} \
        == {n: ts.to_dict() for n, ts in series.items()}
    assert "slo.op-p50-1cyc.burn" in series and "core.busy" in series


def test_round_tripped_log_stays_bytes_until_read():
    """A sweep worker's record reaches its parent with the event log as
    one bytes blob.  Its length, its cap and its index come without
    decoding it for good; only reading ``events`` keeps the decoded
    list, and a held log pickles again as the same blob."""
    import pickle

    from repro.workload import WorkloadSpec
    from repro.workload.scenarios import run_counter_benchmark

    with obs.observed(trace=True) as session:
        run_counter_benchmark("mp-server", 3, spec=WorkloadSpec(
            warmup_cycles=1_000, measure_cycles=4_000))
    (rec,) = session.records()
    back = pickle.loads(pickle.dumps(rec)).trace
    assert back._events is None and isinstance(back._blob, bytes)
    assert len(back) == len(rec.trace) > 0
    assert (back.limit, back.dropped) == (rec.trace.limit, rec.trace.dropped)
    ix = back.index()
    assert ix.records == rec.trace.index().records
    assert back._events is None
    assert pickle.loads(pickle.dumps(back))._blob == back._blob
    assert back.events == rec.trace.events
    assert back._blob is None and len(back) == len(rec.trace)


def test_nested_sessions_rejected():
    with obs.observed() as outer:
        with pytest.raises(RuntimeError):
            with obs.observed():
                pass
        assert obs.active_session() is outer
    assert obs.active_session() is None


# -- counters --------------------------------------------------------------

def test_latency_bucket_edges():
    assert latency_bucket(0) == 0
    assert latency_bucket(1) == 1
    assert latency_bucket(2) == 2
    assert latency_bucket(3) == 2
    assert latency_bucket(4) == 3
    assert latency_bucket(63) == 6
    assert latency_bucket(64) == 7


def test_counters_track_mpserver_run():
    m = Machine(tile_gx())
    ob = m.enable_observability()
    table = OpTable()
    op, _a = _counter_body(table, m)
    prim = MPServer(m, table, server_tid=0)
    prim.start()

    def client(ctx, n):
        for _ in range(n):
            yield from prim.apply_op(ctx, op, 1)

    n_clients, n_ops = 4, 25
    for t in range(1, n_clients + 1):
        ctx = m.thread(t)
        m.spawn(ctx, client(ctx, n_ops))
    m.run()

    snap = ob.counters.snapshot()
    total = n_clients * n_ops
    assert snap["global"]["ops_serviced"] == total
    assert snap["core"][0]["service_cycles"] > 0
    assert "requests_served" not in snap["global"]
    # every request is a 3-word send + 1-word response
    sent = sum(c.get("udn_msgs_sent", 0) for c in snap["core"].values())
    assert sent == 2 * total
    assert snap["global"]["udn_deliveries"] == 2 * total
    assert sum(snap["udn_hist"].values()) == 2 * total


def test_event_stalls_equal_hw_registers():
    """The double-count guard: stall registers rebuilt from bus events
    (the oracle) must equal the cores' own stall registers exactly --
    the live counter file reads the latter back."""
    m = Machine(tile_gx())
    ob = m.enable_observability()
    ref = oracle_counters(ob)
    table = OpTable()
    op, _a = _counter_body(table, m)
    prim = CCSynch(m, table)

    def client(ctx, n):
        for _ in range(n):
            yield from prim.apply_op(ctx, op, 1)
            yield from ctx.fence()

    for t in range(6):
        ctx = m.thread(t)
        m.spawn(ctx, client(ctx, 20))
    m.run()

    assert any(c.stall_total for c in m.cores)
    assert_event_stalls_equal_hw(ref)
    assert ob.counters.snapshot() == ref.snapshot()


def test_counters_subscribe_to_nothing():
    """The hardware models write the counter file; a counters-only
    machine has no bus subscriber at all."""
    m = Machine(tile_gx())
    ob = m.enable_observability()
    assert ob.bus.counters is ob.counters
    assert ob.bus._kind_subs is None and ob.bus.wanted == frozenset()


def test_counters_delta_and_merge():
    m = Machine(tile_gx())
    ob = m.enable_observability()
    a = m.mem.alloc(1)

    def prog(ctx, n):
        for _ in range(n):
            yield from ctx.faa(a, 1)

    ctx = m.thread(0)
    m.spawn(ctx, prog(ctx, 10))
    m.run()
    before = ob.counters.snapshot()
    ctx2 = m.thread(1)
    m.spawn(ctx2, prog(ctx2, 5))
    m.run()
    delta = ob.counters.delta(before)
    # only the second batch appears, and zero entries are dropped
    assert delta["core"][1]["atomics"] == 5
    assert 0 not in delta["core"] or "atomics" not in delta["core"].get(0, {})
    merged = merge_counters({}, before)
    merge_counters(merged, delta)
    assert merged["core"][0]["atomics"] == 10
    assert merged["core"][1]["atomics"] == 5


def test_cas_failures_counted_per_line():
    m = Machine(tile_gx())
    ob = m.enable_observability()
    a = m.mem.alloc(1)
    m.mem.poke(a, 7)

    def prog(ctx):
        ok = yield from ctx.cas(a, 0, 1)   # fails: value is 7
        assert not ok
        ok = yield from ctx.cas(a, 7, 1)   # succeeds
        assert ok

    ctx = m.thread(0)
    m.spawn(ctx, prog(ctx))
    m.run()
    snap = ob.counters.snapshot()
    line = m.mem.line_of(a)
    assert snap["core"][0]["cas_failures"] == 1
    assert snap["line"][line]["cas_failures"] == 1
    assert snap["hw"][0]["cas_failures"] == 1


def test_invalidation_attribution():
    """A writer invalidating a sharer shows up on the victim's counter."""
    m = Machine(tile_gx())
    ob = m.enable_observability()
    a = m.mem.alloc(1, isolated=True)

    def reader(ctx):
        yield from ctx.load(a)          # install S on core 0

    def writer(ctx):
        yield from ctx.work(200)        # after the reader finished
        yield from ctx.store(a, 1)      # invalidates core 0
        yield from ctx.fence()

    r = m.thread(0)
    w = m.thread(1)
    m.spawn(r, reader(r))
    m.spawn(w, writer(w))
    m.run()
    snap = ob.counters.snapshot()
    assert snap["core"][0]["invalidations_received"] == 1
    assert snap["line"][m.mem.line_of(a)]["invalidations"] == 1


def test_zero_overhead_when_off():
    """With obs off the simulation takes the exact same cycle path."""
    def run(enable):
        m = Machine(tile_gx())
        if enable:
            m.enable_observability()
        table = OpTable()
        op, a = _counter_body(table, m)
        prim = HybComb(m, table)

        def client(ctx, n):
            for _ in range(n):
                yield from prim.apply_op(ctx, op, 1)

        for t in range(5):
            ctx = m.thread(t)
            m.spawn(ctx, client(ctx, 10))
        m.run()
        return m.now, m.mem.peek(a), [c.snapshot() for c in m.cores]

    assert run(False) == run(True)


def test_session_aggregate_and_csv():
    with obs.observed() as session:
        for _ in range(2):
            m = Machine(tile_gx())
            a = m.mem.alloc(1)

            def prog(ctx):
                yield from ctx.faa(a, 1)

            ctx = m.thread(0)
            m.spawn(ctx, prog(ctx))
            m.run()
    agg = session.aggregate()
    assert agg["core"][0]["atomics"] == 2
    csv = session.metrics_csv()
    lines = csv.strip().splitlines()
    assert lines[0] == "scope,id,counter,value"
    assert any(ln.startswith("core,0,atomics,2") for ln in lines)
    assert any(ln.startswith("hw,0,") for ln in lines)


# -- enable-time baselining (late enable / late source registration) -------

def test_late_enable_baselines_hw_registers():
    """Observability enabled mid-run must not fold pre-enable totals
    into its registers: hw counters read 0 at enable time and track
    only post-enable work."""
    m = Machine(tile_gx())
    table = OpTable()
    op, a = _counter_body(table, m)
    prim = CCSynch(m, table)

    def client(ctx, n):
        for _ in range(n):
            yield from prim.apply_op(ctx, op, 1)

    # phase 1: unobserved warm-up traffic
    for t in range(4):
        ctx = m.thread(t)
        m.spawn(ctx, client(ctx, 20))
    m.run()
    raw_before = {c.cid: c.snapshot() for c in m.cores}
    assert any(v for regs in raw_before.values() for v in regs.values())

    ob = m.enable_observability()
    snap0 = ob.counters.snapshot()
    # at enable time every hw register reads zero, despite phase 1
    for regs in snap0["hw"].values():
        assert all(v == 0 for v in regs.values())

    # phase 2: observed traffic (fresh tids; contexts are one-shot)
    for t in range(4, 8):
        ctx = m.thread(t)
        m.spawn(ctx, client(ctx, 20))
    m.run()
    snap1 = ob.counters.snapshot()
    delta = ob.counters.delta(snap0)
    for cid, regs in snap1["hw"].items():
        raw = m.cores[cid].snapshot()
        for name, v in regs.items():
            # snapshot = raw minus the enable-time baseline...
            assert v == raw[name] - raw_before[cid][name]
            # ...and delta(snap0) equals phase-2-only work (cores idle
            # since the enable are dropped from the delta entirely)
            assert delta["hw"].get(cid, {}).get(name, 0) == v


def test_register_source_baselined_at_registration():
    m = Machine(tile_gx())
    ob = m.enable_observability()
    state = {"v": 1000.0}
    first = ob.counters.snapshot()          # snapshot BEFORE the source
    ob.counters.register_source("ops", lambda: state["v"])
    snap = ob.counters.snapshot()
    assert snap["source"]["ops"] == 0.0     # registration is the baseline
    state["v"] = 1007.0
    later = ob.counters.snapshot()
    assert later["source"]["ops"] == 7.0
    # a source registered after `first` still deltas cleanly against it
    assert ob.counters.delta(first)["source"]["ops"] == 7.0
    assert ob.counters.delta(snap)["source"]["ops"] == 7.0
    with pytest.raises(ValueError):
        ob.counters.register_source("ops", lambda: 0.0)
    # sources flow through merge + csv like every other register group
    agg = {}
    merge_counters(agg, later)
    merge_counters(agg, later)
    assert agg["source"]["ops"] == 14.0
    from repro.obs.counters import counters_csv
    assert "source,,ops,14.0" in counters_csv(agg)
