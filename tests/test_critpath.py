"""Unit tests of the critical-path blame analysis on hand-built streams.

These pin down the painting semantics -- precedence order, exact
partition of the op interval, response refinement after the last
service span, msg_id-matched transit -- on tiny synthetic event streams
where every expected cycle count can be worked out by hand, then check
that the whole-run verdict agrees with the Figure 4a counter breakdown
on real runs.
"""

import pytest

import repro.obs as obs
from repro.analysis.critpath import (
    CATEGORIES,
    analyze,
    analyze_collector,
    diff_reports,
    stragglers,
)
from repro.analysis.render import render_stragglers
from repro.workload.driver import WorkloadSpec
from repro.workload.scenarios import run_counter_benchmark
from tests.helpers import ev


def _op(events, op=0, tid=1, core=1, t0=0, t1=100, measured=True, prim="x"):
    """Wrap ``events`` between an op.begin and op.end pair."""
    return (
        [ev(t0, "op.begin", op=op, tid=tid, core=core, prim=prim)]
        + events
        + [ev(t1, "op.end", op=op, tid=tid, core=core, start=t0,
              measured=measured)]
    )


# -- painting semantics -----------------------------------------------------

def test_bare_op_is_all_client():
    rep = analyze(_op([]))
    (o,) = rep.ops
    assert o.blame == {"client": 100}
    assert o.segments == [(0, 100, "client")]
    assert o.dominant == "client"


def test_paint_precedence_and_exact_partition():
    # stall [10,20), recv wait [30,80), service [40,50) on another core
    rep = analyze(_op([
        ev(20, "cache.stall", core=1, cycles=10, why="miss", line=0,
           start=10),
        ev(80, "udn.recv", tid=1, core=1, start=30, waited=50, words=1),
        ev(50, "server.done", core=0, client=1, prim="x", start=40),
    ]))
    (o,) = rep.ops
    assert o.blame == {
        "client": 40,       # [0,10) + [20,30) + [80,100)
        "coherence": 10,    # [10,20)
        "queueing": 10,     # [30,40): parked before service started
        "service": 10,      # [40,50)
        "response": 30,     # [50,80): recv wait after service ended
    }
    assert sum(o.blame.values()) == o.latency == 100


def test_serving_core_stalls_become_service_stall():
    rep = analyze(_op([
        ev(50, "server.done", core=0, client=1, prim="x", start=40),
        # the *serving* core stalled for [43,48) inside the service span
        ev(48, "cache.stall", core=0, cycles=5, why="miss", line=0,
           start=43),
    ]))
    (o,) = rep.ops
    assert o.blame["service"] == 5
    assert o.blame["service_stall"] == 5


def test_atomic_and_backpressure_paint_over_client():
    rep = analyze(_op([
        ev(15, "atomic.stall", core=1, cycles=5, line=0, start=10),
        ev(40, "udn.backpressure", core=1, start=30, cycles=10, dst_core=0),
    ]))
    (o,) = rep.ops
    assert o.blame == {"client": 85, "atomic": 5, "backpressure": 10}


def test_udn_transit_matched_by_msg_id():
    rep = analyze(_op([
        ev(5, "udn.send", core=1, msg_id=7, dst_tid=0, dst_core=0, words=3),
        ev(12, "udn.deliver", core=0, msg_id=7, words=3, latency=7,
           demux=0),
        # a send whose delivery was never recorded paints nothing
        ev(60, "udn.send", core=1, msg_id=8, dst_tid=0, dst_core=0, words=3),
    ]))
    (o,) = rep.ops
    assert o.blame["udn_transit"] == 7   # [5,12)
    assert o.blame["client"] == 93


def test_combining_for_others_is_separated_from_client_time():
    rep = analyze(_op([
        ev(70, "combiner.close", tid=1, core=1, start=20, ops=4, prim="x"),
    ]))
    (o,) = rep.ops
    assert o.blame == {"client": 50, "combining": 50}


def test_spans_outside_the_op_are_clipped():
    rep = analyze(_op([
        # stall straddles t0: only [0,5) lands in the op
        ev(5, "cache.stall", core=1, cycles=10, why="miss", line=0,
           start=-5),
        # service span starting before t0 is ignored entirely
        ev(30, "server.done", core=0, client=1, prim="x", start=-2),
    ], t0=0))
    (o,) = rep.ops
    assert o.blame["coherence"] == 5
    assert "service" not in o.blame
    assert sum(o.blame.values()) == 100


def test_begin_without_end_counts_incomplete():
    rep = analyze([ev(0, "op.begin", op=0, tid=1, core=1, prim="x")])
    assert rep.ops == []
    assert rep.incomplete_ops == 1


def test_unmeasured_ops_excluded_from_run_blame():
    events = (_op([], op=0, t0=0, t1=50, measured=False)
              + _op([], op=1, t0=60, t1=100, measured=True))
    rep = analyze(events)
    assert len(rep.ops) == 2
    assert len(rep.measured_ops) == 1
    assert rep.blame == {"client": 40}


# -- whole-run critical path ------------------------------------------------

def test_path_chains_one_threads_consecutive_ops():
    events = (_op([], op=0, t0=0, t1=40) + _op([], op=1, t0=60, t1=100))
    rep = analyze(events)
    assert [o for o, _s, _e, _c in rep.path] == [0, 1]
    assert rep.path_cycles == 80


def test_path_rides_the_serialized_service_resource():
    # two clients; their service spans serialize on the server, so the
    # longest chain hops between ops through the service segments
    events = (
        _op([ev(80, "server.done", core=0, client=1, prim="x", start=60)],
            op=0, tid=1, core=1, t0=0, t1=85)
        + _op([ev(90, "server.done", core=0, client=2, prim="x", start=82)],
            op=1, tid=2, core=2, t0=5, t1=95)
    )
    rep = analyze(events)
    assert rep.path_blame.get("service", 0) > 0
    ops_on_path = {o for o, _s, _e, _c in rep.path}
    assert ops_on_path == {0, 1}
    # op0's wait + service chained into op1's service beats either op
    # alone (85 and 90 cycles): 60 + 20 + 8 + 5
    assert rep.path_cycles == 93


# -- derived reports --------------------------------------------------------

def test_stragglers_returns_slowest_measured_first():
    events = []
    for i, lat in enumerate((30, 90, 60)):
        events += _op([], op=i, tid=1, core=1, t0=i * 200,
                      t1=i * 200 + lat)
    rep = analyze(events)
    top = stragglers(rep, k=2)
    assert [o.latency for o in top] == [90, 60]


@pytest.mark.parametrize("k", [0, -2])
def test_straggler_count_below_one_rejected(k):
    """K < 1 once printed every op but the K fastest (k=-2) or a
    "[no measured ops]" table for a run that measured ops (k=0)."""
    rep = analyze(_op([], t0=0, t1=50))
    with pytest.raises(ValueError, match="straggler count"):
        stragglers(rep, k=k)
    with pytest.raises(ValueError, match="straggler count"):
        render_stragglers(rep, k)


def test_diff_reports_mean_per_op_delta():
    a = analyze(_op([], t0=0, t1=50))
    b = analyze(_op([ev(40, "atomic.stall", core=1, cycles=10, line=0,
                        start=30)], t0=0, t1=100))
    d = diff_reports(a, b)
    assert d["client"] == {"a": 50.0, "b": 90.0, "delta": 40.0}
    assert d["atomic"]["delta"] == 10.0
    assert set(d) <= set(CATEGORIES)


# -- agreement with the Figure 4a counter breakdown -------------------------

def test_path_verdict_matches_fig4a_counters():
    """The whole-run analysis must name the same service-stall story as
    the aggregate counter registers: SHM-SERVER's service time is
    dominated by coherence stalls (the 2-RMR critical path), MP-SERVER's
    is essentially stall-free."""
    spec = WorkloadSpec(warmup_cycles=5_000, measure_cycles=15_000)
    shares = {}
    for approach in ("mp-server", "shm-server"):
        with obs.observed(trace=True) as session:
            r = run_counter_benchmark(approach, 10, spec=spec)
        (ob,) = session.machines
        rep = analyze_collector(ob.trace, label=approach)
        svc = rep.blame.get("service", 0)
        stall = rep.blame.get("service_stall", 0)
        path_share = stall / max(svc + stall, 1)
        ctr_share = (r.extra["obs.service_stall_per_op"]
                     / max(r.extra["obs.service_cycles_per_op"], 1e-9))
        shares[approach] = (path_share, ctr_share)
        # same verdict, numerically close
        assert abs(path_share - ctr_share) < 0.1, (approach, shares)
    # and the verdicts are the paper's: shm stall-bound, mp not
    assert shares["shm-server"][0] > 0.3
    assert shares["mp-server"][0] < 0.1
    assert (shares["shm-server"][1] > 0.3) and (shares["mp-server"][1] < 0.1)
