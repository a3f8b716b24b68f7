"""Flight recorder: a bounded ring of recent bus events + auto incident dumps.

The recorder asks the bus to keep the last ``limit`` events in a
bounded ring (``EventBus.keep_recent``: a C-level deque append inside
``emit``, no extra Python call per event) and registers a
kind-filtered subscriber for its trigger kinds only -- always-on cost
is one append plus a dict probe per event, memory is O(limit) no
matter how long the run.

The ring holds the *narrated* tail (:data:`repro.obs.bus.NARRATED_KINDS`:
ops, service spans, combining sessions, faults, admission, timeouts,
crashes, SLO alerts), which ``keep_recent`` adds to the bus's
``wanted`` kinds.  Hardware kinds (cache, atomics, UDN send/deliver/
receive, NoC, process spawn/exit) are built only on demand, so they
appear in the ring only while another consumer -- a trace, a full
subscriber, the spatial atlas for its two kinds -- wants them.

When something goes wrong it **dumps an incident bundle**: a single
JSON document holding the recent-event tail, the time-series tail, a
full perf-counter snapshot, the SLO status, the machine-config
fingerprint and the bus's wanted ``kinds`` (so a reader sees which
kinds were off, not lost), so a failure observed deep into a long run
is diagnosable (and, when a schedule-recording policy was installed,
replayable) without re-running it.

Automatic triggers:

* ``deadlock``       -- :class:`~repro.sim.engine.DeadlockError` raised
  from ``Machine.run`` (the machine hooks this recorder before
  re-raising);
* ``proc.kill``      -- a fault-plan crash landed (every injected crash
  kills its victim through ``Process.kill``);
* ``slo.breach``     -- an SLO monitor fired (see :mod:`repro.obs.slo`);
* ``timeout.storm``  -- >= ``storm_threshold`` dispatch/receive
  timeouts (``dispatch.timeout`` / ``udn.timeout`` / ``admit.retry``
  events) within ``storm_window`` cycles, at most one dump per window.

Bundles follow the explore repro-bundle conventions
(:mod:`repro.explore.bundle`): a ``format`` version, the
``config_fingerprint`` replay guard, and -- when ``sim.policy`` is a
recording policy -- the decision ``trace`` under a ``repro`` key, in
exactly the shape :class:`~repro.explore.policy.ReplayPolicy` consumes.
Files are written atomically (temp file + ``os.replace``), so a dump
raised from inside a crash handler can never leave a truncated JSON.
"""

from __future__ import annotations

import itertools
import json
import os
from collections import deque
from typing import Any, Dict, List, Optional

__all__ = ["FlightRecorder"]

#: incident bundle schema version (see DESIGN.md §14)
_FORMAT = 1

#: per-series point budget in a bundle's time-series tail
_TS_TAIL = 64

#: event kinds that can trigger an incident dump (the recorder's
#: kind-filtered bus subscription); every other kind only costs the
#: bus-ring append
TRIGGERS = frozenset(
    ("proc.kill", "slo.breach", "dispatch.timeout", "udn.timeout",
     "admit.retry"))

#: process-wide recorder ids -- many machines (a sweep builds one per
#: point) share one incident directory, so filenames carry the
#: recorder's creation rank to stay collision-free and deterministic
_RECORDER_IDS = itertools.count()


class FlightRecorder:
    """Bounded recent-event ring with automatic incident dumps."""

    def __init__(self, ob, *, limit: int = 4096,
                 out_dir: Optional[str] = None,
                 storm_threshold: int = 50, storm_window: int = 10_000,
                 max_incidents: int = 8):
        self.ob = ob
        self.rid = next(_RECORDER_IDS)
        #: the bus-owned bounded ring of recent events (validates limit)
        self.events: deque = ob.bus.keep_recent(limit)
        #: incident bundle dicts, in detection order (capped)
        self.incidents: List[Dict[str, Any]] = []
        #: paths written for them (when ``out_dir`` is set)
        self.paths: List[str] = []
        #: incidents detected, including ones past the ``max_incidents`` cap
        self.detected = 0
        self.out_dir = out_dir
        self.max_incidents = max_incidents
        self.storm_threshold = storm_threshold
        self.storm_window = storm_window
        self._storm: deque = deque()
        self._storm_quiet_until = -1

    # -- bus subscribers --------------------------------------------------
    def on_event(self, t: int, kind: str, f: Dict[str, Any]) -> None:
        """Manual feed for unwired recorders (tests, offline replay).

        A bus-wired recorder never takes this path: the ring append
        rides inside ``EventBus.emit`` and only :data:`TRIGGERS` kinds
        reach :meth:`on_trigger` through the kind-filtered subscription.
        """
        self.events.append((t, kind, f))
        if kind in TRIGGERS:
            self.on_trigger(t, kind, f)

    def on_trigger(self, t: int, kind: str, f: Dict[str, Any]) -> None:
        if kind == "proc.kill":
            self.record_incident("proc.kill",
                                 detail=str(f.get("name", "?")), cycle=t)
        elif kind == "slo.breach":
            self.record_incident("slo.breach",
                                 detail=str(f.get("slo", "?")), cycle=t)
        else:
            storm = self._storm
            storm.append(t)
            floor = t - self.storm_window
            while storm and storm[0] < floor:
                storm.popleft()
            if len(storm) >= self.storm_threshold and t >= self._storm_quiet_until:
                self._storm_quiet_until = t + self.storm_window
                self.record_incident(
                    "timeout.storm",
                    detail=f"{len(storm)} timeouts/retries in "
                           f"{self.storm_window} cycles", cycle=t)

    # -- dumping ----------------------------------------------------------
    def record_incident(self, reason: str, *, detail: str = "",
                        cycle: Optional[int] = None) -> Optional[Dict[str, Any]]:
        """Build (and, with ``out_dir`` set, write) one incident bundle."""
        self.detected += 1
        if len(self.incidents) >= self.max_incidents:
            return None  # keep a storm of triggers from flooding the disk
        ob = self.ob
        sim = ob.machine.sim
        doc: Dict[str, Any] = {
            "format": _FORMAT,
            "kind": "incident",
            "reason": reason,
            "detail": detail,
            "cycle": sim.now if cycle is None else cycle,
            "label": ob.label,
            "config_fingerprint": ob.machine.cfg.fingerprint(),
            "events": [[t, k, f] for t, k, f in self.events],
            # the kinds the bus was building: any other kind was not
            # emitted at all, so it is absent from the tail by design
            "kinds": sorted(ob.bus.wanted),
            "counters": _plain(ob.counters.snapshot()),
            "timeseries": (ob.sampler.dump(tail=_TS_TAIL)
                           if ob.sampler is not None else {}),
            "slo": ob.slo.summary() if ob.slo is not None else [],
        }
        policy = sim.policy
        trace = getattr(policy, "trace", None)
        if trace is not None:
            # the explore-bundle replay payload: the decision trace IS
            # the schedule (drive a fresh run with ReplayPolicy over it)
            doc["repro"] = {
                "trace": [[str(k), int(v)] for k, v in trace],
                "config_fingerprint": doc["config_fingerprint"],
            }
        self.incidents.append(doc)
        if self.out_dir is not None:
            self.paths.append(self._write(doc))
        return doc

    def _write(self, doc: Dict[str, Any]) -> str:
        os.makedirs(self.out_dir, exist_ok=True)
        name = (f"incident-r{self.rid:03d}-{len(self.paths):02d}-"
                f"{doc['reason'].replace('.', '-')}-c{doc['cycle']}.json")
        path = os.path.join(self.out_dir, name)
        # write-then-rename: a crash handler dumping mid-flight must
        # never leave a partially written (corrupt) bundle behind
        tmp = path + ".tmp"
        with open(tmp, "w") as f:
            json.dump(doc, f, indent=1, sort_keys=True, default=str)
            f.write("\n")
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
        return path


def _plain(obj: Any) -> Any:
    """Deep-convert a counters snapshot to JSON-safe plain types."""
    if isinstance(obj, dict):
        return {str(k): _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    return obj
