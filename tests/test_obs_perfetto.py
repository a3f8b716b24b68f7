"""Chrome/Perfetto trace export: JSON schema and track-layout checks."""

import json

import repro.obs as obs
from repro.core import MPServer, OpTable
from repro.machine import Machine, tile_gx
from repro.obs.bus import EventLog
from repro.obs.perfetto import trace_events
from tests.helpers import ev


def _run_mpserver(num_clients=4, ops=20):
    m = Machine(tile_gx())
    table = OpTable()
    a = m.mem.alloc(1)

    def body(c, arg):
        v = yield from c.load(a)
        yield from c.store(a, v + arg)
        return v + arg

    op = table.register(body)
    prim = MPServer(m, table, server_tid=0)
    prim.start()

    def client(ctx, n):
        for _ in range(n):
            yield from prim.apply_op(ctx, op, 1)

    for t in range(1, num_clients + 1):
        ctx = m.thread(t)
        m.spawn(ctx, client(ctx, ops))
    return m


def test_chrome_trace_schema(tmp_path):
    with obs.observed(trace=True) as session:
        m = _run_mpserver()
        m.run()
        path = tmp_path / "trace.json"
        n = session.export_chrome_trace(str(path))
    doc = json.loads(path.read_text())
    assert set(doc) == {"traceEvents", "displayTimeUnit", "otherData"}
    events = doc["traceEvents"]
    assert len(events) == n > 0

    meta = [e for e in events if e["ph"] == "M"]
    real = [e for e in events if e["ph"] != "M"]
    # one process per traced machine, named after its label
    procs = [e for e in meta if e["name"] == "process_name"]
    assert len(procs) == 1 and procs[0]["pid"] == 0

    # a thread_name track exists for every core that emitted events
    named = {(e["pid"], e["tid"]): e["args"]["name"]
             for e in meta if e["name"] == "thread_name"}
    used = {(e["pid"], e["tid"]) for e in real}
    assert used <= set(named)
    # the server core and at least one client core have core tracks
    assert named[(0, 0)] == "core 0"
    assert any(nm == "udn" for nm in named.values())

    # every real event: required keys, monotonic ts per track after sort
    for e in real:
        assert e["ph"] in ("X", "i")
        assert isinstance(e["ts"], int) and e["ts"] >= 0
        if e["ph"] == "X":
            assert isinstance(e["dur"], int) and e["dur"] >= 0
        else:
            assert e["s"] == "t"
        assert "name" in e and "cat" in e and "args" in e
    ts = [e["ts"] for e in real]
    assert ts == sorted(ts)


def test_trace_events_per_core_track():
    with obs.observed(trace=True) as session:
        m = _run_mpserver(num_clients=3)
        m.run()
    ncores = len(m.cores)
    events = trace_events(session.machines[0].trace, ncores, pid=0)
    real = [e for e in events if e["ph"] != "M"]
    # clients 1..3 sit on cores 1..3: each core track must carry events
    tids = {e["tid"] for e in real}
    assert {0, 1, 2, 3} <= tids
    names = {e["tid"]: e["args"]["name"] for e in events if e["ph"] == "M"}
    assert names[1] == "core 1"
    assert names[ncores + 1] == "udn"   # deliveries sit on the udn track
    assert ncores not in names          # the sim track is unused here


def test_sim_track_carries_faults_and_links_get_tracks_in_first_use_order():
    log = EventLog()
    for t, a, b, wait in ((5, 3, 4, 0), (6, 1, 2, 1), (7, 3, 4, 0)):
        log.on_event(*ev(t, "noc.link", a=a, b=b, wait=wait, busy=2, hop=0,
                         msg_id=None))
    log.on_event(*ev(9, "proc.kill", name="server"))
    log.on_event(*ev(9, "proc.spawn", name="x"))  # not a traced kind
    events = trace_events(log, num_cores=2, pid=0)
    names = {e["tid"]: e["args"]["name"] for e in events if e["ph"] == "M"}
    assert names == {2: "sim", 4: "link 3->4", 5: "link 1->2"}
    real = [(e["tid"], e["name"]) for e in events if e["ph"] != "M"]
    assert real == [(4, "link 3->4"), (5, "link 1->2"), (4, "link 3->4"),
                    (2, "proc.kill")]


def test_trace_limit_counts_drops(tmp_path):
    with obs.observed(trace=True, trace_limit=3) as session:
        m = _run_mpserver(num_clients=1, ops=5)
        m.run()
        path = tmp_path / "trace.json"
        session.export_chrome_trace(str(path))
    log = session.machines[0].trace
    assert len(log.events) == 3
    assert log.dropped > 0 and log.truncated
    other = json.loads(path.read_text())["otherData"]
    assert other["truncated"] is True
    assert other["dropped_events"] == log.dropped


def test_merged_export_assigns_one_pid_per_machine(tmp_path):
    with obs.observed(trace=True) as session:
        for _ in range(2):
            m = _run_mpserver(num_clients=2, ops=5)
            m.run()
        path = tmp_path / "merged.json"
        session.export_chrome_trace(str(path))
    doc = json.loads(path.read_text())
    pids = {e["pid"] for e in doc["traceEvents"]}
    assert pids == {0, 1}


def test_export_without_trace_raises(tmp_path):
    with obs.observed(trace=False) as session:
        m = Machine(tile_gx())
        assert m.obs.trace is None
        try:
            session.export_chrome_trace(str(tmp_path / "x.json"))
        except RuntimeError:
            pass
        else:
            raise AssertionError("expected RuntimeError")


def test_combiner_spans_recorded():
    from repro.core import CCSynch
    with obs.observed(trace=True) as session:
        m = Machine(tile_gx())
        table = OpTable()
        a = m.mem.alloc(1)

        def body(c, arg):
            v = yield from c.load(a)
            yield from c.store(a, v + 1)
            return v

        op = table.register(body)
        prim = CCSynch(m, table)

        def client(ctx, n):
            for _ in range(n):
                yield from prim.apply_op(ctx, op, 0)

        for t in range(4):
            ctx = m.thread(t)
            m.spawn(ctx, client(ctx, 10))
        m.run()
    events = trace_events(session.machines[0].trace, len(m.cores), pid=0)
    combines = [e for e in events if e["name"] == "combine"]
    assert combines
    for e in combines:
        assert e["cat"] == "combiner" and e["ph"] == "X"
        assert e["dur"] >= 0
        assert e["args"]["prim"] == "CC-Synch"


def test_export_with_empty_tracks(tmp_path):
    """A machine that never ran still exports a valid, loadable trace:
    process/thread metadata only, no crash on empty per-core tracks."""
    with obs.observed(trace=True) as session:
        Machine(tile_gx())
        path = tmp_path / "empty.json"
        session.export_chrome_trace(str(path))
    doc = json.loads(path.read_text())
    events = doc["traceEvents"]
    assert all(e["ph"] == "M" for e in events)  # metadata records only
    names = {e["name"] for e in events}
    assert "process_name" in names  # no threads ran -> no thread tracks


# -- counter tracks --------------------------------------------------------

def test_counter_events_shape():
    from repro.obs.perfetto import counter_events
    from repro.obs.timeseries import Sampler

    sampler = Sampler(None, every=10, buckets=8)
    sampler.register("goodput", lambda: 3.0, kind="gauge", unit="Mops")
    sampler.register("plain", lambda: 1.0)
    sampler.on_tick(10)
    events = counter_events(7, sampler.series)
    assert events
    for e in events:
        assert e["ph"] == "C" and e["cat"] == "telemetry"
        assert e["pid"] == 7 and e["tid"] == 0
        assert set(e["args"]) == {"value"}
    names = {e["name"] for e in events}
    assert "goodput (Mops)" in names   # unit folds into the track label
    assert "plain" in names


def test_sampled_series_ride_the_exported_trace(tmp_path):
    with obs.observed(trace=True, timeseries=True,
                      sample_every=256) as session:
        m = _run_mpserver()
        m.run()
        path = tmp_path / "trace.json"
        session.export_chrome_trace(str(path))
    doc = json.loads(path.read_text())
    counters = [e for e in doc["traceEvents"] if e.get("ph") == "C"]
    assert counters
    names = {e["name"] for e in counters}
    assert any(n.startswith("core.busy") for n in names)
    # counter tracks land on the same pid as the machine's span events
    span_pids = {e["pid"] for e in doc["traceEvents"]
                 if e.get("ph") == "X"}
    assert {e["pid"] for e in counters} <= span_pids


def test_unmatched_counter_labels_get_their_own_process(tmp_path):
    from repro.obs.perfetto import write_chrome_trace
    from repro.obs.timeseries import Sampler

    sampler = Sampler(None, every=10, buckets=8)
    sampler.register("g", lambda: 1.0)
    sampler.on_tick(10)
    series = {"every": 10, "ticks": 1, "series": sampler.series}

    def record(label, trace):
        return obs.ObsRecord(
            label=label, cores=1, fingerprint="", counters={},
            timeseries=series, slo=[], slo_events=[], spatial=None,
            incidents=[], incident_paths=[], trace=trace)

    path = str(tmp_path / "t.json")
    write_chrome_trace([record("run-a", EventLog()), record("other", None)],
                       path)
    doc = json.loads((tmp_path / "t.json").read_text())
    meta = {e["args"]["name"]: e["pid"] for e in doc["traceEvents"]
            if e.get("ph") == "M" and e["name"] == "process_name"}
    assert meta["run-a"] == 0
    assert meta["other"] == 1  # an untraced sampled machine: its own pid
    counter_pids = {e["pid"] for e in doc["traceEvents"]
                    if e.get("ph") == "C"}
    assert counter_pids == {0, 1}
