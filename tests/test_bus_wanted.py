"""The bus builds only the kinds a consumer wants.

Every publish site checks ``"<kind>" in obs.wanted`` before it builds an
event, so which consumers are attached decides which events exist --
never what the simulation does.  These tests pin the taxonomy (the
kinds ``src/`` emits are :data:`repro.obs.bus.KINDS` and the rows of the
``repro.obs.bus`` table), the ``wanted`` bookkeeping, and the stream
equivalence the guard promises: on five scenarios, a run under the
report stack publishes exactly a fully-observed run's events filtered
to its ``wanted`` kinds, with the same results and counters, while a
counters-only run publishes nothing.
"""

import dataclasses
import re
from contextlib import contextmanager
from pathlib import Path

import pytest

import repro
import repro.obs as obs
import repro.obs.bus as bus_module
from repro.core import OpTable, ShmServer
from repro.faults import CrashThread, FaultPlan
from repro.machine import Machine, mesh_profile, tile_gx, x86_like
from repro.objects import LockedCounter
from repro.obs.bus import KINDS, NARRATED_KINDS, EventBus
from repro.workload import WorkloadSpec
from repro.workload.openloop import (
    AdmissionSpec,
    ArrivalSpec,
    OpenLoopSpec,
    run_openloop_workload,
)
from repro.workload.scenarios import (
    run_counter_benchmark,
    run_fault_recovery_benchmark,
)

SPEC = WorkloadSpec(warmup_cycles=5_000, measure_cycles=20_000)

#: what ``python -m repro report`` turns on for a run
REPORT = dict(timeseries=True, flight=True, spatial=True, spatial_hops=True,
              slos=(obs.SLO("op-p99", kind="latency", target=2_000.0),))


# -- the taxonomy ------------------------------------------------------------

_EMIT = re.compile(r'emit\(\s*"([^"]+)"')
_ROW = re.compile(r"^``([a-z_]+\.[a-z_]+)``\s+(narrated|hardware)\s", re.M)


def _emit_sites():
    """(path, kind, text before the emit in its function) per emit site."""
    for path in sorted(Path(repro.__file__).parent.rglob("*.py")):
        text = path.read_text()
        for m in _EMIT.finditer(text):
            start = text.rfind("\ndef ", 0, m.start())
            start = max(start, text.rfind("    def ", 0, m.start()))
            yield path, m.group(1), text[max(start, 0):m.start()]


def test_emitted_kinds_are_the_taxonomy():
    """A kind missing from KINDS would never reach a full subscriber."""
    emitted = {kind for _p, kind, _before in _emit_sites()}
    rows = dict(_ROW.findall(bus_module.__doc__))
    assert emitted == KINDS == set(rows)
    assert {k for k, c in rows.items() if c == "narrated"} == NARRATED_KINDS
    assert NARRATED_KINDS < KINDS


def test_every_emit_site_checks_wanted():
    """Each publish site builds its event only under its kind's check."""
    unguarded = [
        f"{p.name}: {kind}" for p, kind, before in _emit_sites()
        if not re.search(rf'"{re.escape(kind)}" in [\w.]+\.wanted', before)]
    assert unguarded == []


# -- wanted bookkeeping ------------------------------------------------------

class _Clock:
    now = 0


def _noop(t, k, f):
    pass


def _other(t, k, f):
    pass


def test_wanted_follows_subscriptions_and_the_ring():
    bus = EventBus(_Clock())
    assert bus.wanted == frozenset()
    bus.subscribe_kinds(("noc.link",), _noop)
    assert bus.wanted == {"noc.link"}
    bus.keep_recent(8)
    assert bus.wanted == NARRATED_KINDS | {"noc.link"}
    bus.subscribe(_other)
    assert bus.wanted == KINDS
    bus.unsubscribe(_other)
    assert bus.wanted == NARRATED_KINDS | {"noc.link"}


def test_emit_publishes_whatever_is_wanted():
    """``emit`` does not filter: a direct call always publishes."""
    bus = EventBus(_Clock())
    ring = bus.keep_recent(8)
    bus.emit("cache.miss", core=0)
    assert bus.events_emitted == 1 and [k for _t, k, _f in ring] == ["cache.miss"]


def test_unsubscribe_removes_a_function_from_both_tables():
    bus = EventBus(_Clock())
    bus.subscribe(_noop)
    bus.subscribe_kinds(("op.end", "udn.send"), _noop)
    bus.subscribe_kinds(("op.end",), _other)
    bus.unsubscribe(_noop)
    assert bus._subs == [] and bus._kind_subs == {"op.end": [_other]}
    assert bus.wanted == {"op.end"}
    bus.unsubscribe(_other)
    assert bus._kind_subs is None and bus.wanted == frozenset()


def test_unsubscribe_unknown_function_says_so():
    bus = EventBus(_Clock())
    bus.subscribe_kinds(("op.end",), _noop)
    with pytest.raises(ValueError, match="not subscribed"):
        bus.unsubscribe(_other)
    assert bus.wanted == {"op.end"}


@contextmanager
def _observing(hook, **options):
    """An observed session that calls ``hook(ob)`` on each new machine,
    after its observability is built and before it runs."""
    with obs.observed(**options) as session:
        register = session.register

        def hooked(ob):
            register(ob)
            hook(ob)

        session.register = hooked
        yield session


def test_unsubscribed_machine_emits_nothing():
    def churn(ob):
        ob.bus.subscribe(_noop)
        ob.bus.subscribe_kinds(("op.end", "udn.send"), _other)
        ob.bus.unsubscribe(_noop)
        ob.bus.unsubscribe(_other)
        assert ob.bus.wanted == frozenset()

    with _observing(churn) as session:
        r = run_counter_benchmark("mp-server", 6, spec=SPEC)
    (ob,) = session.machines
    assert r.ops > 0 and ob.counters.snapshot()["udn_hist"]
    assert ob.bus.events_emitted == 0


# -- stream equivalence ------------------------------------------------------

def _overload():
    """Open loop past a cancellable shm-server's capacity with short
    dispatch deadlines: timeouts, retries, shedding and the breaker."""
    m = Machine(tile_gx())
    tids = range(1, 9)
    prim = ShmServer(m, OpTable(), server_tid=0, client_tids=tids,
                     cancellable=True)
    counter = LockedCounter(prim)
    prim.start()
    spec = OpenLoopSpec(
        arrivals=ArrivalSpec(process="poisson", mean_gap_cycles=200.0),
        admission=AdmissionSpec(policy="retry", capacity=8,
                                dispatch_timeout_cycles=300,
                                breaker_threshold=4, slo_cycles=5_000),
        warmup_cycles=5_000, measure_cycles=30_000, seed=42)
    return run_openloop_workload(m, [m.thread(t) for t in tids], prim,
                                 counter._op_inc, spec, name="overload")


SCENARIOS = {
    "mp-server": lambda: run_counter_benchmark("mp-server", 6, spec=SPEC),
    # x86 stores miss through spawned ownership transactions
    "ccsynch-x86": lambda: run_counter_benchmark(
        "CC-Synch", 6, spec=SPEC, cfg=x86_like()),
    # hop-by-hop links: the atlas reads their registers, not noc.link
    "hybcomb-contended-4x4": lambda: run_counter_benchmark(
        "HybComb", 8, spec=SPEC, cfg=mesh_profile(4, 4, contended_noc=True)),
    "overload-timeouts": _overload,
    "mp-server-ft-crash": lambda: run_fault_recovery_benchmark(
        6, spec=SPEC, fault_plan=FaultPlan(seed=1, faults=(
            CrashThread(tid=0, at_cycle=12_000),))),
}


def _run(scenario, record, **options):
    """Run a scenario observed; ``record`` is "all" (a full recording
    subscriber), "wanted" (a recorder on the kinds already wanted, which
    leaves ``wanted`` as the stack set it) or None."""
    streams = []

    def attach(ob):
        events = []
        streams.append(events)

        def rec(t, k, f):
            events.append((t, k, f))

        if record == "all":
            ob.bus.subscribe(rec)
        elif record == "wanted":
            wanted = ob.bus.wanted
            ob.bus.subscribe_kinds(sorted(wanted), rec)
            assert ob.bus.wanted == wanted

    with _observing(attach, **options) as session:
        result = SCENARIOS[scenario]()
    (ob,) = session.machines
    (events,) = streams
    return result, ob, events


def _sim(result):
    """The simulated result: everything but host time and telemetry."""
    d = dataclasses.asdict(result)
    for key in ("host_wall_seconds", "host_events_processed", "telemetry"):
        d.pop(key)
    return d


def test_lone_kind_subscriber_sees_the_full_streams_fields():
    """``op.end`` wanted without ``op.begin`` (an SLO monitor alone)
    still carries the run-unique op ids the full stream has."""
    _r, _a, full = _run("mp-server", "all")
    _r, b, stream = _run("mp-server", "wanted", slos=REPORT["slos"])
    assert b.bus.wanted == {"op.end"}
    assert stream == [e for e in full if e[1] == "op.end"] != []


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_report_stack_stream_is_the_full_stream_filtered(scenario):
    ra, a, full = _run(scenario, "all", **REPORT)
    rb, b, stream = _run(scenario, "wanted", **REPORT)
    rc, c, _ = _run(scenario, None)

    # the guard changes which events exist, never the execution
    assert _sim(ra) == _sim(rb) == _sim(rc)
    assert a.counters.snapshot() == b.counters.snapshot() == c.counters.snapshot()
    assert ra.telemetry == rb.telemetry
    assert a.spatial.summary() == b.spatial.summary()
    assert a.slo.summary() == b.slo.summary()

    # the ring narrates, and nothing else in the stack subscribes to a
    # hardware kind: the atlas reads the counter file
    wanted = b.bus.wanted
    assert wanted == NARRATED_KINDS
    assert stream == [e for e in full if e[1] in wanted]
    assert b.bus.events_emitted == len(stream) < a.bus.events_emitted
    assert c.bus.wanted == frozenset() and c.bus.events_emitted == 0
    for doc in b.flight.incidents:
        assert {k for _t, k, _f in doc["events"]} <= wanted
        assert doc["kinds"] == sorted(wanted)
    if scenario == "mp-server-ft-crash":
        assert [d["reason"] for d in b.flight.incidents][:1] == ["proc.kill"]
