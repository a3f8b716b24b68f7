"""Flight recorder: bounded ring, triggers, atomic incident bundles."""

import json
import os

import pytest

import repro.obs as obs
from repro.faults import CrashThread, FaultPlan
from repro.machine import Machine, tile_gx
from repro.obs import SLO
from repro.obs.bus import NARRATED_KINDS
from repro.sim.engine import DeadlockError
from repro.workload import WorkloadSpec
from repro.workload.scenarios import run_counter_benchmark
from tests.helpers import ev

SPEC = WorkloadSpec(warmup_cycles=5_000, measure_cycles=20_000)


def _machine(**kw):
    with obs.observed(flight=True, **kw) as session:
        m = Machine(tile_gx())
    return m, session.machines[0]


# -- the ring --------------------------------------------------------------

def test_recent_ring_is_bounded():
    _m, ob = _machine(flight_limit=16)
    events = [ev(0, "op.begin", core=0, tid=0, op=i, prim="x")
              for i in range(100)]
    for _t, kind, args in events:
        ob.bus.emit(kind, *args)
    assert len(ob.flight.events) == 16
    # the ring holds the newest tail, oldest first
    assert list(ob.flight.events) == events[84:]


def test_flight_limit_validated():
    with pytest.raises(ValueError):
        _machine(flight_limit=0)


# -- triggers --------------------------------------------------------------

def test_proc_kill_event_dumps_incident(tmp_path):
    out = str(tmp_path / "inc")
    _m, ob = _machine(incident_dir=out)
    _t, kind, args = ev(0, "proc.kill", name="victim-3")
    ob.bus.emit(kind, *args)
    assert len(ob.flight.incidents) == 1
    doc = ob.flight.incidents[0]
    assert doc["reason"] == "proc.kill" and doc["detail"] == "victim-3"
    # written atomically: the file on disk parses back to the same doc
    (path,) = ob.flight.paths
    assert os.path.exists(path) and not os.path.exists(path + ".tmp")
    with open(path) as f:
        assert json.load(f)["reason"] == "proc.kill"


def test_slo_breach_trigger_sees_monitor_state(tmp_path):
    # wire SLO + flight together on the bus: the breach event must dump
    # a bundle whose slo section already shows the breach (the flight
    # trigger runs after the monitor updated its state)
    slo = SLO("lat", kind="latency", target=10.0, budget=0.5,
              burn_threshold=1.0, short_ticks=1, long_ticks=1)
    _m, ob = _machine(slos=(slo,), incident_dir=str(tmp_path))
    ob.bus.sim.now = 512
    _t, kind, args = ev(512, "op.end", core=0, tid=0, op=0, start=0,
                        measured=True)
    ob.bus.emit(kind, *args)
    ob.slo.on_tick(512)
    assert ob.slo.breaches == 1
    assert len(ob.flight.incidents) == 1
    doc = ob.flight.incidents[0]
    assert doc["reason"] == "slo.breach" and doc["detail"] == "lat"
    assert doc["slo"][0]["breached"] is True
    # the bundle's event tail includes the breach event itself
    assert any(k == "slo.breach" for _t, k, _f in doc["events"])


def test_timeout_storm_dumps_once_per_window():
    _m, ob = _machine()
    ob.flight.storm_threshold = 10
    ob.flight.storm_window = 1_000
    for t in range(0, 3_000, 10):   # 100 timeouts per window, sustained
        ob.flight.on_trigger(*ev(t, "udn.timeout", core=0, op="receive",
                                 waited=1))
    reasons = [d["reason"] for d in ob.flight.incidents]
    assert reasons.count("timeout.storm") == len(reasons)
    # one dump per quiet window, not one per timeout
    assert 1 <= len(reasons) <= 3


def test_sparse_timeouts_do_not_dump():
    _m, ob = _machine()
    ob.flight.storm_threshold = 10
    ob.flight.storm_window = 1_000
    for t in range(0, 100_000, 5_000):   # far apart: never 10 in a window
        ob.flight.on_trigger(*ev(t, "dispatch.timeout", core=0, tid=0,
                                 prim="x", waited=1))
    assert ob.flight.incidents == []


def test_max_incidents_caps_disk_but_counts_detections(tmp_path):
    _m, ob = _machine(incident_dir=str(tmp_path))
    ob.flight.max_incidents = 3
    for i in range(10):
        _t, kind, args = ev(0, "proc.kill", name=f"v{i}")
        ob.bus.emit(kind, *args)
    assert len(ob.flight.incidents) == 3
    assert len(ob.flight.paths) == 3
    assert ob.flight.detected == 10
    # filenames are unique (recorder id + per-recorder sequence)
    assert len(set(ob.flight.paths)) == 3


# -- end-to-end paths ------------------------------------------------------

def test_fault_plan_crash_dumps_valid_bundle(tmp_path):
    out = str(tmp_path / "inc")
    plan = FaultPlan(seed=1, faults=(
        CrashThread(tid=3, at_cycle=SPEC.warmup_cycles + 5_000),))
    with obs.observed(flight=True, timeseries=True,
                      incident_dir=out) as session:
        r = run_counter_benchmark("mp-server", 5, spec=SPEC, fault_plan=plan)
    (ob,) = session.machines
    assert r.ops > 0
    crash = [d for d in ob.flight.incidents if d["reason"] == "proc.kill"]
    assert len(crash) == 1
    doc = crash[0]
    assert doc["cycle"] == SPEC.warmup_cycles + 5_000
    assert doc["config_fingerprint"] == ob.machine.cfg.fingerprint()
    assert doc["events"]           # ring had traffic before the crash
    assert doc["timeseries"]       # sampler tail rode along
    assert session.incidents() == ob.flight.incidents
    # every path on disk parses as JSON
    for p in ob.flight.paths:
        with open(p) as f:
            json.load(f)


def test_crash_bundle_names_the_kinds_the_bus_built(tmp_path):
    """A bundle lists the wanted kinds: hardware kinds were off, not lost."""
    plan = FaultPlan(seed=1, faults=(
        CrashThread(tid=3, at_cycle=SPEC.warmup_cycles + 5_000),))
    with obs.observed(flight=True, incident_dir=str(tmp_path)) as session:
        run_counter_benchmark("mp-server", 5, spec=SPEC, fault_plan=plan)
    (ob,) = session.machines
    (doc,) = [d for d in ob.flight.incidents if d["reason"] == "proc.kill"]
    assert doc["format"] == 1
    assert doc["kinds"] == sorted(NARRATED_KINDS)
    assert "udn.send" not in doc["kinds"]
    assert {k for _t, k, _f in doc["events"]} <= NARRATED_KINDS
    assert {"op.begin", "server.done", "proc.kill"} <= {
        k for _t, k, _f in doc["events"]}
    (path,) = ob.flight.paths
    with open(path) as f:
        assert json.load(f)["kinds"] == doc["kinds"]


def test_deadlock_dump_from_machine_run():
    with obs.observed(flight=True) as session:
        m = Machine(tile_gx())
        ev = m.sim.event(label="never")

        def stuck():
            yield ev

        m.sim.spawn(stuck(), name="stuck-proc")
        with pytest.raises(DeadlockError):
            m.run()
    (ob,) = session.machines
    (doc,) = ob.flight.incidents
    assert doc["reason"] == "deadlock"
    assert "stuck-proc" in doc["detail"]
