"""Differential test: hop attribution against its bus-fed oracle.

The UDN fabric counts the spatial atlas's hop totals inline (per-pair
delivery totals), and the atlas reads per-message hop records from the
machine's event log (``SpatialAtlas.hop_records``).
``tests/spatial_hops_oracle.py`` keeps the bus-fed ledger both replaced,
which opened a record on every ``udn.send``, charged ``noc.link`` waits
to it and closed it on ``udn.deliver``.  Subscribed beside the atlas on
the same traced machine, the oracle must agree with it *exactly*: the
summary's ``hops`` totals and every record's ``to_dict()``.  The records
must also conserve and sum to the totals.

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

_SUMMED = ("latency", "queue", "transit", "eject", "skew")


def _ledgers(monkeypatch):
    """Subscribe a bus-fed oracle beside every attached atlas."""

    def on_attach(ob):
        ref = HopLedger(ob.machine)
        ob.bus.subscribe_kinds(KINDS, ref.on_event)
        return ob, ref

    return attach_oracles(monkeypatch, on_attach)


def _assert_matches(ob, ref, skew=0):
    """The inline totals equal the oracle's; the records read from the
    event log are the oracle's first ones (all of them unless the log
    was truncated), each conserving with ``skew``, and a whole log's
    records sum to the totals."""
    atlas = ob.spatial
    assert atlas.summary()["hops"] == atlas.hop_totals == ref.hop_totals
    records = atlas.hop_records(ob.trace)
    assert [r.to_dict() for r in records] == [
        r.to_dict() for r in ref.records[:len(records)]]
    per_hop = atlas.mesh.per_hop
    for r in records:
        assert r.queue + r.transit + r.eject + r.skew == r.latency
        assert r.skew == skew, r.to_dict()
        assert r.transit == per_hop * len(r.hops)
    if not ob.trace.truncated:
        tot = atlas.hop_totals
        assert len(records) == tot["messages"]
        for field in _SUMMED:
            assert sum(getattr(r, field) for r in records) == tot[field]
    return records


def _run_pairs(monkeypatch, cfg, pairs, *, jitter=None, trace_limit=None,
               skew=0):
    """Run ``pairs`` on a traced machine beside the oracle; returns the
    atlas and its records."""
    attached = _ledgers(monkeypatch)
    limit = {} if trace_limit is None else {"trace_limit": trace_limit}
    with obs.observed(spatial_hops=True, trace=True, **limit):
        m = Machine(cfg)
    if jitter is not None:
        m.udn.transit_jitter = jitter
    _send_receive(m, pairs)
    (ob, ref), = attached
    return ob.spatial, _assert_matches(ob, ref, skew)


def _cut_after(cfg, pairs, k):
    """The ``trace_limit`` that ends the run's event log at its ``k``-th
    ``udn.deliver``."""
    with obs.observed(trace=True):
        m = Machine(cfg)
    _send_receive(m, pairs)
    delivers = [i for i, (_t, kind, _args) in enumerate(m.obs.trace.events)
                if kind == "udn.deliver"]
    return delivers[k - 1] + 1


def test_idle_analytic_mesh_matches_oracle(monkeypatch):
    atlas, records = _run_pairs(monkeypatch, tile_gx(), IDLE_PAIRS)
    assert len(records) == 4
    # the src == dst message crosses no link
    assert [r.hops for r in records if r.src == r.dst] == [[]]
    assert atlas.hop_totals["queue"] == 0


def test_backpressured_contended_mesh_matches_oracle(monkeypatch):
    atlas, records = _run_pairs(
        monkeypatch, tile_gx(contended_noc=True, udn_buffer_words=8),
        CONVERGE_PAIRS)
    assert atlas.hop_totals["queue"] > 0
    assert len(records) == len(CONVERGE_PAIRS)


@pytest.mark.parametrize("contended", [False, True],
                         ids=["analytic", "contended"])
def test_constant_jitter_lands_in_skew(monkeypatch, contended):
    atlas, records = _run_pairs(monkeypatch, tile_gx(contended_noc=contended),
                                CONVERGE_PAIRS, jitter=lambda src, dst, n: 3,
                                skew=3)
    assert {r.skew for r in records} == {3}
    assert atlas.hop_totals["skew"] == 3 * len(CONVERGE_PAIRS)


def test_record_budget_matches_oracle(monkeypatch):
    """The record budget is the event log's ``trace_limit``: a log cut
    after its third delivery yields the oracle's first three records,
    while the inline totals keep counting every delivery."""
    pairs = [(0, 14, 1)] * 8
    atlas, records = _run_pairs(monkeypatch, tile_gx(), pairs,
                                trace_limit=_cut_after(tile_gx(), pairs, 3))
    assert len(records) == 3 and atlas.hop_totals["messages"] == 8


@pytest.mark.parametrize("pairs, k", [
    (CONVERGE_PAIRS, 3),
    # the far message's last hops come after the near one's delivery
    ([(35, 0, 1), (1, 0, 1)], 2),
], ids=["queued", "far-after-near"])
def test_record_budget_on_contended_mesh_matches_oracle(monkeypatch, pairs, k):
    """Each record in a log cut after its ``k``-th delivery carries all
    of its message's hops, whatever interleaves with them."""
    cfg = tile_gx(contended_noc=True, udn_buffer_words=8)
    atlas, records = _run_pairs(monkeypatch, cfg, pairs,
                                trace_limit=_cut_after(cfg, pairs, k))
    assert len(records) == k
    assert atlas.hop_totals["messages"] == len(pairs)
    for r in records:
        assert len(r.hops) == atlas.mesh.hops(r.src, r.dst)


def test_mp_server_benchmark_matches_oracle(monkeypatch):
    attached = _ledgers(monkeypatch)
    with obs.observed(spatial_hops=True, trace=True):
        run_counter_benchmark(
            "mp-server", 6,
            spec=WorkloadSpec(warmup_cycles=5_000, measure_cycles=30_000))
    assert attached
    for ob, ref in attached:
        assert ref.hop_totals["messages"] > 0
        assert not ob.trace.truncated
        _assert_matches(ob, ref)


# -- what the atlas keeps per message: nothing ----------------------------------

def test_zero_record_budget_keeps_nothing_and_drops_every_delivery(monkeypatch):
    atlas, records = _run_pairs(monkeypatch, tile_gx(), [(0, 14, 1)] * 4,
                                trace_limit=0)
    assert records == []
    assert atlas.hop_totals["messages"] == 4


def _retained_bytes(n):
    """Bytes a ``2 * n``-message ping-pong with hop attribution on
    leaves allocated (an upper bound on what the atlas retains)."""
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
    assert m.obs.spatial.hop_totals["messages"] == 2 * n
    return kept


def test_atlas_memory_does_not_grow_with_messages():
    """Over one fixed (src, dst) pair set, ten times the messages leave
    no more memory behind: the fabric keeps per-pair totals only, and
    per-message records come from the event log."""
    small, large = _retained_bytes(1_000), _retained_bytes(10_000)
    assert large - small <= 2_048, (small, large)


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
    with obs.observed(spatial_hops=True, timeseries=True, trace=True):
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
