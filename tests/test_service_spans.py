"""One record per service span, and one ledger per UDN message.

Every delegation core closes a service span through
:meth:`repro.core.api.SyncPrimitive.record_service`, which writes the
servicing core's ``service_cycles`` / ``ops_serviced`` registers and
emits ``server.done``.  So the registers and the event log count the
same spans: on every delegating approach (dedicated servers and both
combiners, with and without a fixed combiner) the global
``ops_serviced`` is the log's ``server.done`` count, and each core's
``service_cycles`` is the summed length of its spans.  No second,
request-start count exists beside them.

The UDN fabric writes its traffic once, into the counter file's
per-(src core, dst core) ``pair`` rows; per-core ``udn_words_sent`` is
summed from them, and a message sent before observability was enabled
still books its delivery.
"""

import pytest

import repro.obs as obs
from repro.core import MPServer, OpTable
from repro.machine import Machine, tile_gx
from repro.obs.counters import PAIR_SLOTS
from repro.workload.driver import WorkloadSpec
from repro.workload.scenarios import run_counter_benchmark, run_fault_recovery_benchmark

SPEC = WorkloadSpec(warmup_cycles=2_000, measure_cycles=10_000)

SCENARIOS = {
    "mp-server": lambda: run_counter_benchmark("mp-server", 6, spec=SPEC),
    "mp-server-ft": lambda: run_fault_recovery_benchmark(6, spec=SPEC),
    "shm-server": lambda: run_counter_benchmark("shm-server", 6, spec=SPEC),
    "HybComb": lambda: run_counter_benchmark("HybComb", 6, spec=SPEC),
    "HybComb-fixed": lambda: run_counter_benchmark(
        "HybComb", 6, spec=SPEC, fixed_combiner=True),
    "CC-Synch": lambda: run_counter_benchmark("CC-Synch", 6, spec=SPEC),
    "CC-Synch-fixed": lambda: run_counter_benchmark(
        "CC-Synch", 6, spec=SPEC, fixed_combiner=True),
}


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_service_registers_count_the_logged_spans(scenario):
    with obs.observed(trace=True) as session:
        SCENARIOS[scenario]()
    (ob,) = session.machines
    assert not ob.trace.truncated
    spans = ob.trace.index().records["server.done"]
    assert spans, "no service span was recorded"
    snap = ob.counters.snapshot()
    assert "requests_served" not in snap["global"]
    assert not any("requests_served" in regs for regs in snap["core"].values())
    assert snap["global"]["ops_serviced"] == len(spans)
    logged = {}
    for r in spans:
        logged[r.core] = logged.get(r.core, 0) + r.t - r.start
    registers = {cid: regs["service_cycles"]
                 for cid, regs in snap["core"].items()
                 if "service_cycles" in regs}
    assert registers == logged


def test_udn_words_sent_is_summed_from_the_pair_rows():
    m = Machine(tile_gx())
    table = OpTable()
    op = table.register(lambda ctx, arg: ctx.work(3), name="cs")
    prim = MPServer(m, table, server_tid=0)
    prim.start()

    def client(ctx):
        for _ in range(20):
            yield from prim.apply_op(ctx, op, 1)

    for t in range(1, 5):
        ctx = m.thread(t)
        m.spawn(ctx, client(ctx))
    ob = m.enable_observability()
    m.run()
    pairs = ob.counters.pair
    snap = ob.counters.snapshot()
    assert "pair" not in snap
    sent = {}
    for (src, _dst), row in pairs.items():
        sent[src] = sent.get(src, 0) + row[1]
    assert {cid: regs["udn_words_sent"]
            for cid, regs in snap["core"].items()
            if "udn_words_sent" in regs} == sent
    # every message was delivered: 4 clients x 20 requests + responses
    assert sum(row[0] for row in pairs.values()) == 160
    assert sum(row[2] for row in pairs.values()) == 160
    assert snap["global"]["udn_deliveries"] == 160
    assert all(row[0] == row[2] and row[1] == row[3]
               for row in pairs.values())


def test_message_in_flight_at_a_late_enable_opens_its_pair_row():
    m = Machine(tile_gx())
    receiver, sender = m.thread(1, core_id=5), m.thread(2, core_id=0)
    got = []

    def send(ctx):
        yield from ctx.send(1, [7, 8])

    def recv(ctx):
        got.append((yield from ctx.receive(2)))

    m.spawn(sender, send(sender))
    m.spawn(receiver, recv(receiver))
    m.run(until=m.cfg.udn_send_base + 2 * m.cfg.udn_send_per_word)
    assert not got, "the message must still be in flight"
    ob = m.enable_observability()
    m.run()
    assert got == [[7, 8]]
    (row,) = ob.counters.pair.values()
    assert list(ob.counters.pair) == [(0, 5)]
    assert len(row) == len(PAIR_SLOTS)
    # no send was observed; the delivery was
    assert row[:4] == [0, 0, 1, 2] and row[4] > 0 and row[5] == 0
    assert "udn_words_sent" not in ob.counters.snapshot()["core"].get(0, {})
