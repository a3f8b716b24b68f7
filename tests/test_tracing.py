"""Tests for the ASCII timeline rendered from a machine's event log."""

import json
import os
import re
import runpy
import sys

import pytest

import repro.obs as obs
from repro.analysis.render import render_timeline
from repro.core import MPServer, OpTable
from repro.experiments.registry import _export_obs
from repro.machine import Machine, tile_gx
from repro.obs.bus import SCHEMA, EventLog
from repro.workload import WorkloadSpec
from repro.workload.scenarios import run_counter_benchmark
from tests.helpers import ev


def _log(*events):
    log = EventLog()
    for t, kind, args in events:
        log.on_event(t, kind, args)
    return log


def _stall(core, start, end, why="load"):
    return ev(end, "cache.stall", core=core, cycles=end - start, why=why,
              line=1, start=start)


def _atomic(core, start, end):
    return ev(end, "atomic.stall", core=core, cycles=end - start, line=1,
              start=start)


def _send(core, t):
    return ev(t, "udn.send", core=core, dst_tid=0, dst_core=0, words=1,
              msg_id=t)


def _recv(core, start, end):
    return ev(end, "udn.recv", core=core, tid=core, words=1,
              waited=end - start, start=start)


def _op(core, start, end):
    return ev(end, "op.end", core=core, tid=core, op=start, start=start,
              measured=True)


def _rows(out):
    return {ln.split("|")[0].strip(): ln.split("|")[1]
            for ln in out.splitlines() if re.match(r"c\d", ln)}


def _totals(out):
    line = next(ln for ln in out.splitlines()
                if ln.startswith("cycles by kind: "))
    pairs = line[len("cycles by kind: "):].split(", ")
    return {k: int(v) for k, v in (p.split("=") for p in pairs)}


def test_render_timeline_basic():
    out = render_timeline(_log(_stall(0, 0, 50), _atomic(0, 50, 100),
                               _send(1, 0), _recv(1, 10, 100)), width=20)
    rows = _rows(out)
    assert set(rows) == {"c0", "c1"}
    assert "legend:" in out and "cycles by kind:" in out
    assert "r" in rows["c0"] and "A" in rows["c0"]
    assert rows["c1"][0] == "s" and "v" in rows["c1"]


def test_every_stall_and_message_kind_has_its_glyph():
    log = _log(_stall(0, 0, 10, "load"), _stall(0, 10, 20, "store_buffer"),
               _stall(0, 20, 30, "mshr"), _atomic(0, 30, 40),
               ev(50, "fence.stall", core=0, cycles=10, why="drain",
                  start=40),
               _recv(0, 50, 60),
               ev(70, "udn.backpressure", core=0, dst_core=1, cycles=10,
                  start=60))
    assert _rows(render_timeline(log, width=70))["c0"] == (
        "r" * 10 + "w" * 10 + "m" * 10 + "A" * 10 + "F" * 10 + "v" * 10
        + "b" * 10)


def test_background_spans_paint_only_uncovered_buckets():
    """An op/service/combine span never hides a stall or message span,
    even where it covers more of the bucket."""
    log = _log(_atomic(0, 2, 3), _op(0, 0, 40),
               ev(40, "server.done", core=1, client=0, prim="p", start=0),
               ev(40, "combiner.close", core=2, tid=2, prim="p", ops=3,
                  start=20))
    rows = _rows(render_timeline(log, start=0, end=40, width=4))
    assert rows["c0"] == "A---"
    assert rows["c1"] == "eeee"
    assert rows["c2"] == "  cc"


def test_render_timeline_empty():
    assert render_timeline(EventLog()) == "[empty trace]"
    # kinds that carry no span draw nothing either
    log = _log(ev(3, "cache.miss", core=0, line=1, op="load",
                  transition="mem->S", latency=5))
    assert render_timeline(log) == "[empty trace]"


def test_render_timeline_window_and_cores():
    log = _log(_recv(0, 0, 1000), _recv(5, 0, 1000))
    rows = _rows(render_timeline(log, start=0, end=500, cores=[5]))
    assert list(rows) == ["c5"]


def test_window_clips_span_endpoints():
    """Spans straddling the window count only their in-window cycles,
    so a kind's total never exceeds the window length times the rows."""
    log = _log(_recv(0, 0, 100),        # straddles both edges of [40, 60)
               _stall(0, 50, 200),      # straddles the right edge
               _stall(1, 0, 30))        # wholly before the window
    out = render_timeline(log, start=40, end=60, width=20)
    totals = _totals(out)
    assert totals == {"recv": 20, "load": 10}
    assert all(v <= (60 - 40) * 2 for v in totals.values())
    assert _rows(out)["c1"] == " " * 20


def test_window_keeps_interior_zero_length_spans():
    log = _log(_send(0, 10),    # before the window
               _send(1, 20),    # at the window start edge
               _send(2, 30),    # at the (exclusive) end edge
               _recv(3, 0, 40))
    rows = _rows(render_timeline(log, start=20, end=30, width=10))
    # [20, 30): the t=20 send is inside, t=30 is not, t=10 is before
    assert rows["c1"] == "s" + " " * 9
    assert rows["c0"] == rows["c2"] == " " * 10


def test_render_timeline_zero_length_at_window_boundary():
    """A zero-length span at the window edge must not crash or vanish."""
    log = _log(_recv(0, 0, 100),
               _send(1, 0),      # zero-length at the very start
               _send(2, 100))    # zero-length at the (exclusive) end
    rows = _rows(render_timeline(log, start=0, end=100, width=20))
    assert rows["c1"][0] == "s"   # a one-cycle dot in the first bucket
    assert "s" not in rows["c2"]  # outside [0, 100): row stays blank


def test_render_timeline_explicit_cores_filter_and_order():
    log = _log(_recv(0, 0, 10), _stall(1, 0, 10), _atomic(2, 0, 10))
    rows = list(_rows(render_timeline(log, cores=[2, 0], width=10)))
    # only the requested cores, in the requested order
    assert rows == ["c2", "c0"]


def test_render_timeline_bucket_width_one():
    """width >= span length: one column per cycle, no div-by-zero."""
    log = _log(_stall(0, 0, 3), _atomic(0, 3, 6))
    out = render_timeline(log, width=100)
    assert "one column = 1 cycles" in out
    assert _rows(out)["c0"] == "rrrAAA"


def test_mp_server_round_trip_shows_send_and_wait():
    """A client's MP-SERVER request renders as a send then a wait for
    the response on its core's row."""
    m = Machine(tile_gx())
    ob = m.enable_observability(trace=True)
    table = OpTable()
    a = m.mem.alloc(1)

    def body(c, arg):
        v = yield from c.load(a)
        yield from c.store(a, v + arg)
        return v + arg

    op = table.register(body)
    prim = MPServer(m, table, server_tid=0)
    prim.start()
    ctx = m.thread(1)
    p = m.spawn(ctx, prim.apply_op(ctx, op, 7))
    m.run()
    assert p.result == 7
    row = _rows(render_timeline(ob.trace, width=200))[f"c{ctx.core.cid}"]
    assert row.lstrip()[0] == "s"
    assert "v" in row and row.index("s") < row.index("v")


def test_trace_anatomy_example_renders_every_core(capsys):
    """The example records a HYBCOMB run and draws one row per client
    core, with FAA round trips (A) and response waits (v) visible."""
    path = os.path.join(os.path.dirname(__file__), os.pardir, "examples",
                        "trace_anatomy.py")
    runpy.run_path(path, run_name="__main__")
    out = capsys.readouterr().out
    rows = _rows(out)
    assert list(rows) == [f"c{i}" for i in range(18)]
    body = "".join(rows.values())
    assert "A" in body and "v" in body
    assert "increments in" in out


def test_readers_of_a_truncated_log_say_so(tmp_path, capsys):
    """The timeline and the hotspot report's op flows state how many
    events a capped log dropped; a complete log renders no such line."""
    spec = WorkloadSpec(warmup_cycles=1_000, measure_cycles=4_000)
    with obs.observed(trace=True, trace_limit=50, spatial=True) as session:
        run_counter_benchmark("mp-server", 3, spec=spec)
    (ob,) = session.machines
    log = ob.trace
    assert len(log.events) == 50 and log.truncated
    note = f"dropped {log.dropped} events at its 50-event cap"
    assert note in render_timeline(log)
    _export_obs(session, "fig", str(tmp_path), trace=False)
    out = capsys.readouterr().out
    assert "hotspots (top 5" in out
    assert f"ops partial data: the event log {note}" in out
    assert "partial data" not in render_timeline(_log(_recv(0, 0, 10)))


def _example(name):
    return os.path.join(os.path.dirname(__file__), os.pardir, "examples",
                        f"{name}.py")


@pytest.mark.parametrize("name", ["telemetry_tour", "fault_drill",
                                  "overload_drill"])
def test_event_stream_examples_run(name, tmp_path, monkeypatch, capsys):
    """The examples that drive the event stream run to completion from
    an empty directory; the tour's incident bundles hold each event as
    ``[cycle, kind, {field: value}]`` with the kind's SCHEMA fields."""
    out = tmp_path / "out"
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(sys, "argv", [f"{name}.py", str(out)])
    runpy.run_path(_example(name), run_name="__main__")
    assert capsys.readouterr().out
    if name != "telemetry_tour":
        assert os.listdir(tmp_path) == []
        return
    assert os.listdir(tmp_path) == ["out"]
    bundles = sorted((out / "incidents").glob("*.json"))
    assert bundles
    for path in bundles:
        doc = json.loads(path.read_text())
        assert doc["format"] == 1 and doc["events"]
        for t, kind, fields in doc["events"]:
            assert isinstance(t, int) and isinstance(kind, str)
            assert isinstance(fields, dict)
            assert set(fields) == set(SCHEMA[kind][1])
