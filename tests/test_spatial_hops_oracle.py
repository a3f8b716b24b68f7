"""Differential test: the inline hop ledger against its bus-fed oracle.

The UDN fabric writes the spatial atlas's hop ledger inline (per-pair
delivery totals plus one row of typed columns per recorded message), and the
atlas derives the totals and per-hop records when read.
``tests/spatial_hops_oracle.py`` keeps the ledger it replaced, which
opened a record on every ``udn.send``, charged ``noc.link`` waits to it
and closed it on ``udn.deliver``.  Subscribed beside the atlas on the
same machine, the oracle must agree with it *exactly*: the summary's
``hops`` totals and every record's ``to_dict()``.

The atlas's link occupancy and backpressure are read from the perf
counter file; ``BusOccupancy`` keeps the ``noc.link`` /
``udn.backpressure`` folding they replaced, and the summary's
``links`` and ``tiles`` must match it too.
"""

import gc
import tracemalloc

import pytest

import repro.obs as obs
from repro.machine import Machine, mesh_profile, tile_gx
from repro.workload import WorkloadSpec
from repro.workload.scenarios import run_counter_benchmark
from tests.helpers import attach_oracles
from tests.spatial_hops_oracle import (
    KINDS,
    OCCUPANCY_KINDS,
    BusOccupancy,
    HopLedger,
)
from tests.test_spatial import _send_receive

IDLE_PAIRS = [(0, 14, 3), (2, 14, 1), (7, 30, 5), (9, 9, 2)]

#: many senders converging on one receiver: link FIFOs queue
CONVERGE_PAIRS = [(tid, 0, 2) for tid in range(1, 9) for _ in range(4)]


def _ledgers(monkeypatch, hop_limit=100_000):
    """Subscribe a bus-fed oracle beside every attached atlas."""

    def on_attach(ob):
        ref = HopLedger(ob.machine, hop_limit=hop_limit)
        ob.bus.subscribe_kinds(KINDS, ref.on_event)
        return ob, ref

    return attach_oracles(monkeypatch, on_attach)


def _assert_matches(ob, ref):
    atlas = ob.spatial
    assert atlas.summary()["hops"] == ref.summary()
    assert atlas.hop_totals == ref.hop_totals
    assert atlas.records_dropped == ref.records_dropped
    assert [r.to_dict() for r in atlas.records] == [
        r.to_dict() for r in ref.records]


def _run_pairs(monkeypatch, cfg, pairs, *, jitter=None, hop_limit=100_000):
    attached = _ledgers(monkeypatch, hop_limit)
    with obs.observed(spatial_hops=True, spatial_hop_limit=hop_limit):
        m = Machine(cfg)
    if jitter is not None:
        m.udn.transit_jitter = jitter
    _send_receive(m, pairs)
    (ob, ref), = attached
    _assert_matches(ob, ref)
    return ob.spatial


def test_idle_analytic_mesh_matches_oracle(monkeypatch):
    atlas = _run_pairs(monkeypatch, tile_gx(), IDLE_PAIRS)
    assert len(atlas.records) == 4
    # the src == dst message crosses no link
    assert [r.hops for r in atlas.records if r.src == r.dst] == [[]]


def test_backpressured_contended_mesh_matches_oracle(monkeypatch):
    atlas = _run_pairs(monkeypatch,
                       tile_gx(contended_noc=True, udn_buffer_words=8),
                       CONVERGE_PAIRS)
    assert atlas.hop_totals["queue"] > 0
    assert atlas.records_dropped == 0


@pytest.mark.parametrize("contended", [False, True],
                         ids=["analytic", "contended"])
def test_constant_jitter_lands_in_skew(monkeypatch, contended):
    atlas = _run_pairs(monkeypatch, tile_gx(contended_noc=contended),
                       CONVERGE_PAIRS, jitter=lambda src, dst, n: 3)
    assert {r.skew for r in atlas.records} == {3}
    assert atlas.hop_totals["skew"] == 3 * len(CONVERGE_PAIRS)


def test_record_budget_matches_oracle(monkeypatch):
    atlas = _run_pairs(monkeypatch, tile_gx(), [(0, 14, 1)] * 8, hop_limit=3)
    assert len(atlas.records) == 3 and atlas.records_dropped == 5


@pytest.mark.parametrize("pairs, limit", [
    (CONVERGE_PAIRS, 3),
    # the far message's last hops come after the near one's delivery
    ([(35, 0, 1), (1, 0, 1)], 2),
], ids=["queued", "far-after-near"])
def test_record_budget_on_contended_mesh_matches_oracle(monkeypatch, pairs,
                                                        limit):
    """Per-hop waits are kept up to the last recorded delivery."""
    atlas = _run_pairs(monkeypatch,
                       tile_gx(contended_noc=True, udn_buffer_words=8),
                       pairs, hop_limit=limit)
    assert len(atlas.records) == limit
    assert atlas.records_dropped == len(pairs) - limit
    last = atlas.records[-1]
    assert len(last.hops) == atlas.mesh.hops(last.src, last.dst)


def test_mp_server_benchmark_matches_oracle(monkeypatch):
    attached = _ledgers(monkeypatch)
    with obs.observed(spatial_hops=True):
        run_counter_benchmark(
            "mp-server", 6,
            spec=WorkloadSpec(warmup_cycles=5_000, measure_cycles=30_000))
    assert attached
    for ob, ref in attached:
        assert ref.hop_totals["messages"] > 0
        _assert_matches(ob, ref)


# -- the ledger's budget and footprint ---------------------------------------

def test_zero_record_budget_keeps_nothing_and_drops_every_delivery(monkeypatch):
    atlas = _run_pairs(monkeypatch, tile_gx(), [(0, 14, 1)] * 4, hop_limit=0)
    assert atlas.records == []
    assert atlas.records_dropped == atlas.hop_totals["messages"] == 4


def _retained_bytes(n):
    """Bytes a ``2 * n``-message ping-pong with the hop ledger on leaves
    allocated (an upper bound on what the atlas retains)."""
    m = Machine(tile_gx())
    m.enable_observability(spatial_hops=True)
    a, b = m.thread(0), m.thread(14)

    def server():
        for _ in range(n):
            (v,) = yield from a.receive(1)
            yield from a.send(14, [v])

    def client():
        for i in range(n):
            yield from b.send(0, [i])
            yield from b.receive(1)

    m.spawn(a, server())
    m.spawn(b, client())
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        m.run()
        gc.collect()
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert m.udn.messages_delivered == 2 * n
    return kept


def test_hop_ledger_retains_little_per_message():
    """The ledger keeps one row per recorded message: 8-byte msg_id and
    latency columns, 2-byte src, dst and words columns on a 36-core
    machine (22 B, plus the arrays' growth slack); the per-hop lists and
    record objects are built only when read."""
    n = 10_000
    assert _retained_bytes(n) / (2 * n) <= 26


# -- occupancy and backpressure against the bus-fed atlas ---------------------

def _contended_pairs(cfg):
    def run():
        _send_receive(Machine(cfg), CONVERGE_PAIRS)
    return run


OCCUPANCY_SCENARIOS = {
    "converge": _contended_pairs(tile_gx(contended_noc=True)),
    "converge-backpressured": _contended_pairs(
        tile_gx(contended_noc=True, udn_buffer_words=8)),
    "hybcomb-contended-4x4": lambda: run_counter_benchmark(
        "HybComb", 8, cfg=mesh_profile(4, 4, contended_noc=True),
        spec=WorkloadSpec(warmup_cycles=5_000, measure_cycles=30_000)),
}


@pytest.mark.parametrize("scenario", sorted(OCCUPANCY_SCENARIOS))
def test_occupancy_and_backpressure_match_bus_fed_oracle(monkeypatch,
                                                          scenario):
    def on_attach(ob):
        ledger = HopLedger(ob.machine)
        ob.bus.subscribe_kinds(KINDS, ledger.on_event)
        occupancy = BusOccupancy(ob.machine)
        ob.bus.subscribe_kinds(OCCUPANCY_KINDS, occupancy.on_event)
        # each recording tick's busy deltas, diffed from the counter
        # file, must be what the bus-fed atlas folded since the last one
        ticks = []
        busy_delta = ob.spatial._busy_delta

        def checked():
            delta = busy_delta()
            ticks.append(delta == occupancy.flush())
            return delta

        ob.spatial._busy_delta = checked
        return ob, ledger, occupancy, ticks

    attached = attach_oracles(monkeypatch, on_attach)
    with obs.observed(spatial_hops=True, timeseries=True):
        OCCUPANCY_SCENARIOS[scenario]()
    (ob, ledger, occupancy, ticks), = attached
    live = ob.spatial.summary()
    assert live["contended"] and live["links"]
    ref = occupancy.summary(ob.spatial)
    assert live["links"] == ref["links"]
    assert live["tiles"] == ref["tiles"]
    _assert_matches(ob, ledger)
    assert all(ticks)
    if scenario == "converge-backpressured":
        assert sum(t["backpressure"] for t in live["tiles"].values()) > 0
    if scenario.startswith("hybcomb"):
        assert ticks
