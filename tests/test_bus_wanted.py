"""The bus builds only the kinds a consumer wants.

Every publish site checks ``"<kind>" in obs.wanted`` before it builds an
event, so which consumers are attached decides which events exist --
never what the simulation does.  These tests pin the taxonomy (the
kinds ``src/`` emits are the rows of :data:`repro.obs.bus.SCHEMA`, each
emit passes its row's fields positionally, and every consumer's kind
set is a subset of the kinds it reads from), the ``wanted``
bookkeeping, and the stream equivalence the guard promises: on five
scenarios, a run under the report stack publishes exactly a
fully-observed run's events filtered to its ``wanted`` kinds, with the
same results and counters, while a counters-only run publishes nothing.
"""

import ast
import dataclasses
import re
from contextlib import contextmanager
from pathlib import Path

import pytest

import repro
import repro.obs as obs
from repro.analysis.critpath import CAUSAL_KINDS
from repro.analysis.render import _TIMELINE_KINDS
from repro.core import OpTable, ShmServer
from repro.faults import CrashThread, FaultPlan
from repro.machine import Machine, mesh_profile, tile_gx, x86_like
from repro.objects import LockedCounter
from repro.obs.bus import KINDS, NARRATED_KINDS, SCHEMA, EventBus
from repro.obs.flightrec import TRIGGERS
from repro.obs.perfetto import TRACE_KINDS
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
from tests.helpers import ev

SPEC = WorkloadSpec(warmup_cycles=5_000, measure_cycles=20_000)

#: what ``python -m repro report`` turns on for a run
REPORT = dict(timeseries=True, flight=True, spatial=True, spatial_hops=True,
              slos=(obs.SLO("op-p99", kind="latency", target=2_000.0),))


# -- the taxonomy ------------------------------------------------------------

_EMIT = re.compile(r'emit\(\s*"([^"]+)"')
_SRC = sorted(Path(repro.__file__).parent.rglob("*.py"))


def _emit_sites():
    """(path, kind, text before the emit in its function) per emit site."""
    for path in _SRC:
        text = path.read_text()
        for m in _EMIT.finditer(text):
            start = text.rfind("\ndef ", 0, m.start())
            start = max(start, text.rfind("    def ", 0, m.start()))
            yield path, m.group(1), text[max(start, 0):m.start()]


def test_emitted_kinds_are_the_taxonomy():
    """Every ``emit`` call in ``src/`` names a SCHEMA kind as a constant
    and passes exactly that row's fields, positionally -- no keywords,
    no ``*`` splat -- and every SCHEMA kind is emitted somewhere.  A
    kind missing from KINDS would never reach a full subscriber."""
    emitted, wrong = set(), []
    for path in _SRC:
        for call in ast.walk(ast.parse(path.read_text())):
            if not (isinstance(call, ast.Call)
                    and isinstance(call.func, ast.Attribute)
                    and call.func.attr == "emit"):
                continue
            where = f"{path.name}:{call.lineno}"
            kind = call.args[0] if call.args else None
            if not (isinstance(kind, ast.Constant) and kind.value in SCHEMA):
                wrong.append(f"{where}: not a SCHEMA kind constant")
                continue
            fields = SCHEMA[kind.value][1]
            if (call.keywords or len(call.args) != 1 + len(fields)
                    or any(isinstance(a, ast.Starred) for a in call.args)):
                wrong.append(f"{where}: {kind.value} takes {fields}")
            emitted.add(kind.value)
    assert wrong == []
    assert emitted == KINDS == set(SCHEMA)
    assert {cls for cls, _f in SCHEMA.values()} == {"hardware", "narrated"}
    assert NARRATED_KINDS < KINDS


def test_consumer_kinds_are_schema_kinds():
    """Each consumer's kind set names SCHEMA kinds, and a log reader
    reads only kinds the log records."""
    timeline = set(_TIMELINE_KINDS)
    for kinds in (TRACE_KINDS, CAUSAL_KINDS, timeline, TRIGGERS):
        assert kinds <= KINDS
    # the link-flow join (spatial.causal_link_flows) reads these two
    for kinds in (CAUSAL_KINDS, timeline, {"op.begin", "udn.send"}):
        assert kinds <= TRACE_KINDS
    assert TRIGGERS <= NARRATED_KINDS
    for kind, (_glyph, dur) in _TIMELINE_KINDS.items():
        assert dur is None or dur in SCHEMA[kind][1]


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
    _t, kind, args = ev(0, "cache.miss", core=0, line=0, op="load",
                        transition="I->S", latency=1)
    bus.emit(kind, *args)
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


def _series(ob):
    """The machine's sampled series, as data."""
    tel = ob.record().timeseries
    return tel and {name: ts.to_dict() for name, ts in tel["series"].items()}


def _sim(result):
    """The simulated result: everything but host time."""
    d = dataclasses.asdict(result)
    for key in ("host_wall_seconds", "host_events_processed"):
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
    assert _series(a) == _series(b)
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
