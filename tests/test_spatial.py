"""Spatial NoC congestion atlas: aggregation, conservation, rendering.

The conservation tests are the load-bearing ones: hop-by-hop latency
attribution must tile each delivered message's end-to-end latency
exactly (``queue + transit + eject + skew == latency`` with ``skew ==
0`` when no jitter is installed), the per-record latencies (read from
the event log) must reproduce the UDN delivery histogram bucket for
bucket, and the records must sum to the inline hop totals.  Everything
else -- summaries, merges, renderers -- consumes the same data model.
"""

import re

import pytest

import repro.obs as obs
from repro.analysis.render import render_mesh_heatmap
from repro.machine import Machine, tile_gx
from repro.obs.counters import latency_bucket
from repro.obs.spatial import (
    SpatialAtlas,
    causal_link_flows,
    merge_spatial_summaries,
    render_hotspots,
)
from repro.workload import WorkloadSpec
from repro.workload.scenarios import run_counter_benchmark

SPEC = WorkloadSpec(warmup_cycles=5_000, measure_cycles=30_000)


def _send_receive(m, pairs):
    """Run one send/receive per (src_tid, dst_tid, n_words) triple."""
    threads = {}
    for src, dst, _n in pairs:
        for tid in (src, dst):
            if tid not in threads:
                threads[tid] = m.thread(tid)
    want = {}
    for src, dst, n in pairs:
        want[dst] = want.get(dst, 0) + n

    def sender(ctx, dst, n):
        yield from ctx.send(dst, list(range(n)))

    def receiver(ctx, total):
        got = 0
        while got < total:
            w = yield from ctx.receive(1)
            got += len(w)

    for dst, total in want.items():
        m.spawn(threads[dst], receiver(threads[dst], total))
    for src, dst, n in pairs:
        m.spawn(threads[src], sender(threads[src], dst, n))
    m.run()


# -- aggregation -----------------------------------------------------------

def test_atlas_charges_every_link_of_the_xy_route():
    with obs.observed(spatial=True):
        m = Machine(tile_gx())
        _send_receive(m, [(0, 14, 3)])
        s = m.obs.spatial.summary()
    route = list(m.mesh.links(m.cores[0].node, m.cores[14].node))
    assert s["messages"] == 1 and s["words"] == 3
    assert set(s["links"]) == {f"{a}>{b}" for a, b in route}
    for e in s["links"].values():
        assert e["msgs"] == 1 and e["words"] == 3
    # shares sum to 1 over the active links
    assert sum(e["share"] for e in s["links"].values()) == pytest.approx(1.0)
    dst_node = m.cores[14].node
    tile = s["tiles"][str(dst_node)]
    assert tile["in_msgs"] == 1 and tile["in_words"] == 3
    assert tile["deliver_latency"] > 0


def test_atlas_books_backpressure_on_the_sender_tile():
    with obs.observed(spatial=True):
        m = Machine(tile_gx(udn_buffer_words=4))
        t0, t1 = m.thread(0), m.thread(1)

        def sender(ctx):
            for _ in range(4):
                yield from ctx.send(1, [1, 1])  # 8 words > 4-word buffer

        def receiver(ctx):
            yield 2000
            got = 0
            while got < 8:
                w = yield from ctx.receive(2)
                got += len(w)

        m.spawn(t0, sender(t0))
        m.spawn(t1, receiver(t1))
        m.run()
        s = m.obs.spatial.summary()
    src_node = m.cores[0].node
    assert s["tiles"][str(src_node)]["backpressure"] > 0
    assert s["tiles"][str(src_node)]["backpressure"] == m.udn.backpressure_cycles


def test_contended_mesh_reports_measured_occupancy():
    with obs.observed(spatial=True):
        m = Machine(tile_gx(contended_noc=True))
        _send_receive(m, [(0, 14, 3)])
        s = m.obs.spatial.summary()
    assert s["contended"] and s["basis"] == "busy"
    for e in s["links"].values():
        assert e["packets"] == 1 and e["busy"] > 0


def test_atlas_is_a_pure_observer():
    """Simulated results are bit-identical with the atlas on."""
    r_off = run_counter_benchmark("mp-server", 6, spec=SPEC)
    with obs.observed(spatial=True, spatial_hops=True):
        r_on = run_counter_benchmark("mp-server", 6, spec=SPEC)
    assert r_on.ops == r_off.ops
    assert r_on.per_thread_ops == r_off.per_thread_ops
    assert r_on.mean_latency_cycles == r_off.mean_latency_cycles
    assert r_on.latency_samples == r_off.latency_samples


def test_spatial_summary_rides_the_machine_record():
    with obs.observed(spatial=True) as session:
        run_counter_benchmark("mp-server", 6, spec=SPEC)
    (rec,) = session.records()
    s = rec.spatial
    assert s["messages"] > 0 and s["links"]


# -- hop-by-hop conservation ----------------------------------------------

def _assert_conservation(atlas, m):
    records = atlas.hop_records(m.obs.trace)
    assert records, "no messages recorded"
    hist = {}
    for rec in records:
        assert rec.queue + rec.transit + rec.eject + rec.skew == rec.latency
        assert rec.skew == 0, (rec.msg_id, rec.to_dict())
        assert rec.transit == m.mesh.per_hop * len(rec.hops)
        assert rec.eject == (m.mesh.base
                             + m.mesh.per_word * (rec.words - 1))
        for a, b, q, tr in rec.hops:
            assert q >= 0 and tr == m.mesh.per_hop
        hist[latency_bucket(rec.latency)] = (
            hist.get(latency_bucket(rec.latency), 0) + 1)
    # the per-record latencies reproduce the UDN delivery histogram
    udn_hist = {k: v for k, v in m.obs.counters.udn_hist.items() if v}
    assert hist == udn_hist
    tot = atlas.hop_totals
    assert tot["messages"] == len(records)
    for field in ("latency", "queue", "transit", "eject", "skew"):
        assert tot[field] == sum(getattr(r, field) for r in records)
    assert tot["skew"] == 0


def test_hop_attribution_conserves_on_idle_analytic_mesh():
    with obs.observed(spatial_hops=True, trace=True):
        m = Machine(tile_gx())
        _send_receive(m, [(0, 14, 3), (2, 14, 1), (7, 30, 5), (9, 9, 2)])
        _assert_conservation(m.obs.spatial, m)
        # analytic mesh: no queueing anywhere
        assert m.obs.spatial.hop_totals["queue"] == 0


def test_hop_attribution_conserves_on_backpressured_contended_mesh():
    with obs.observed(spatial_hops=True, trace=True):
        m = Machine(tile_gx(contended_noc=True, udn_buffer_words=8))
        # many senders converging on one receiver: link FIFOs queue
        pairs = [(tid, 0, 2) for tid in range(1, 9) for _ in range(4)]
        _send_receive(m, pairs)
        atlas = m.obs.spatial
        _assert_conservation(atlas, m)
        assert atlas.hop_totals["queue"] > 0, (
            "expected measured link queueing under convergence")


def test_hop_ledger_is_bounded():
    """Per-message records are bounded by the event log's cap; the
    inline totals keep counting past it."""
    with obs.observed(spatial_hops=True, trace=True, trace_limit=12):
        m = Machine(tile_gx())
        _send_receive(m, [(0, 14, 1)] * 8)
        atlas = m.obs.spatial
    log = m.obs.trace
    assert len(log.events) == 12 and log.truncated
    records = atlas.hop_records(log)
    assert 0 < len(records) < 8
    assert len(records) == sum(kind == "udn.deliver"
                               for _t, kind, _args in log.events)
    assert atlas.hop_totals["messages"] == 8  # totals keep counting


# -- sampler series --------------------------------------------------------

def test_spatial_series_appear_in_sampler():
    from repro.obs.spatial import TICK_DECIMATION
    with obs.observed(timeseries=True, sample_every=64, spatial=True):
        m = Machine(tile_gx())
        pairs = [(0, 14, 3)] * 50
        _send_receive(m, pairs)
        ob = m.obs
        names = [n for n in ob.sampler.series if n.startswith("spatial.")]
        assert any(n.startswith("spatial.link.") for n in names)
        assert any(n.startswith("spatial.tile.") for n in names)
        link = next(n for n in names if n.startswith("spatial.link."))
        ts = ob.sampler.series[link]
        assert ts.kind == "counter" and ts.unit == "words"
        assert ts.total() > 0
        # spatial series sample at the decimated cadence
        assert ts.bucket_cycles >= 64 * TICK_DECIMATION


def test_series_cap_counts_drops():
    with obs.observed(timeseries=True, sample_every=64, spatial=True):
        m = Machine(tile_gx())
        ob = m.obs
        ob.spatial.max_series = 1
        t0, t1 = m.thread(0), m.thread(35)

        def sender(ctx):
            for _ in range(20):
                yield from ctx.send(35, [1])
                yield 300  # stretch past several decimated ticks

        def receiver(ctx):
            for _ in range(20):
                yield from ctx.receive(1)

        m.spawn(t0, sender(t0))
        m.spawn(t1, receiver(t1))
        m.run()
        assert [n for n in ob.sampler.series if n.startswith("spatial.")] == [
            "spatial.link.0>1"]
        assert ob.spatial.summary()["series_dropped"] > 0


# -- merge / hotspots / heatmap -------------------------------------------

def test_merge_sums_and_recomputes_shares():
    with obs.observed(spatial=True) as session:
        for _ in range(2):
            m = Machine(tile_gx())
            _send_receive(m, [(0, 14, 3)])
        merged = session.spatial_summary()
    assert merged["machines"] == 2
    assert merged["messages"] == 2 and merged["words"] == 6
    for e in merged["links"].values():
        assert e["msgs"] == 2
    assert sum(e["share"] for e in merged["links"].values()) == \
        pytest.approx(1.0)


def test_merge_rejects_mismatched_meshes():
    a = {"format": 1, "mesh": {"width": 6, "height": 6}, "contended": False,
         "basis": "words", "messages": 0, "words": 0, "links": {},
         "tiles": {}, "series_dropped": 0}
    b = dict(a, mesh={"width": 8, "height": 8})
    with pytest.raises(ValueError, match="different meshes"):
        merge_spatial_summaries([a, b])
    assert merge_spatial_summaries([]) is None


def test_merge_rejects_mismatched_bases():
    a = {"format": 1, "mesh": {"width": 6, "height": 6}, "contended": False,
         "basis": "words", "messages": 0, "words": 0, "links": {},
         "tiles": {}, "series_dropped": 0}
    b = dict(a, contended=True, basis="busy")
    with pytest.raises(ValueError, match="different bases"):
        merge_spatial_summaries([a, b])


def test_session_merges_only_machines_of_the_first_basis():
    """An analytic and a contended machine in one session (as in
    ``disc-noc``): words and busy cycles are never summed."""
    with obs.observed(spatial=True) as session:
        for contended in (False, True):
            _send_receive(Machine(tile_gx(contended_noc=contended)),
                          [(0, 14, 3)])
        merged = session.spatial_summary()
        analytic = session.machines[0].spatial.summary()
    assert merged["machines"] == 1 and merged["basis"] == "words"
    assert merged["messages"] == 1 and merged["words"] == 3
    src = str(session.machines[0].machine.cores[0].node)
    assert merged["tiles"][src]["out"] == 3
    assert merged["tiles"] == analytic["tiles"]


def test_hotspot_report_names_top_links_and_flows():
    with obs.observed(spatial=True, trace=True):
        m = Machine(tile_gx())
        _send_receive(m, [(0, 14, 3), (0, 14, 3), (2, 14, 1)])
        atlas = m.obs.spatial
        s = atlas.summary()
        flows = causal_link_flows(s, m.obs.trace)
    txt = render_hotspots(s, k=3, flows=flows)
    assert "hotspots" in txt and "link" in txt and "tile" in txt
    assert render_hotspots({"links": {}}) == \
        "hotspots: no NoC traffic observed"


def test_mesh_heatmap_renders_and_marks_backpressure():
    with obs.observed(spatial=True):
        m = Machine(tile_gx(udn_buffer_words=4))
        t0, t1 = m.thread(0), m.thread(1)

        def sender(ctx):
            for _ in range(4):
                yield from ctx.send(1, [1, 1])

        def receiver(ctx):
            yield 2000
            got = 0
            while got < 8:
                w = yield from ctx.receive(2)
                got += len(w)

        m.spawn(t0, sender(t0))
        m.spawn(t1, receiver(t1))
        m.run()
        s = m.obs.spatial.summary()
    txt = render_mesh_heatmap(s)
    assert "6x6 mesh" in txt
    assert "B" in txt  # backpressured sender tile is marked
    assert "link" in txt
    assert "no NoC traffic observed" in render_mesh_heatmap(None)


def test_obs_export_lists_each_hot_link_once(capsys):
    """The heatmap's grid and the hotspot report's links print
    together; the hot links are listed once, by the hotspot report."""
    from repro.experiments.registry import _export_obs
    with obs.observed(spatial=True) as session:
        m = Machine(tile_gx())
        _send_receive(m, [(0, 14, 3), (0, 14, 3), (2, 14, 1), (7, 30, 2)])
    _export_obs(session, "fig", None)
    out = capsys.readouterr().out
    assert "NoC congestion atlas" in out and "hotspots (top 5" in out
    links = re.findall(r"^ +link +(\d+>\d+) ", out, re.M)
    assert len(links) == 5 and len(set(links)) == len(links)


def test_atlas_without_udn_machine_stays_empty():
    from repro.machine import x86_like
    with obs.observed(spatial=True):
        m = Machine(x86_like())
    s = m.obs.spatial.summary()
    assert s["messages"] == 0 and not s["links"] and not s["tiles"]
    assert isinstance(m.obs.spatial, SpatialAtlas)
