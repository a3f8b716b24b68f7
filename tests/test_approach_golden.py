"""Golden bit-identity pins for every way a paper label becomes a run.

``tests/test_scale_golden.py`` pins the plain four-approach counter and
one open-loop point.  This suite pins the set-up paths it skips, each
recorded before the approach table (``build_approach``) became the
only place that turns a label into a primitive and its client threads:

* the fixed-combiner (Figure 4a) HybComb and CC-Synch;
* the fault-tolerant MP-SERVER pair, with and without a primary crash;
* the overload experiment's ``mp-server-ft`` crash point and its
  lease-enabled ``HybComb-lease`` arm;
* the Section 6 backpressure and oversubscription points;
* the 64-core scaling points of the two delegation families;
* every explore scenario (the full matrix plus the seeded mutation),
  as ``(ok, kind, events, sha256(history))`` under the default
  schedule.

Allocation order fixes memory addresses, and through them every
simulated number, so these pins also hold construction order fixed.
"""

from __future__ import annotations

import hashlib

from repro.analysis.series import FigureData
from repro.experiments.discussion import _backpressure_point, _oversub_point
from repro.experiments.overload import run_overload_point
from repro.experiments.scale import run_scale_point
from repro.explore.scenarios import FULL_MATRIX, MUTATION_SCENARIO, run_scenario
from repro.faults import CrashThread, FaultPlan
from repro.workload.driver import WorkloadSpec
from repro.workload.scenarios import (
    run_counter_benchmark,
    run_fault_recovery_benchmark,
)

_SPEC = WorkloadSpec(warmup_cycles=10_000, measure_cycles=40_000)

#: FigureData.fingerprint() of _approach_mini(), recorded before the
#: approach table refactor.  Must never change.
APPROACH_MINI_FINGERPRINT = (
    "33af5b703aabb69ae7436ecb3e92f5c140c65ca12d33fff97a6d811dcae166b6"
)

#: sid -> (ok, kind, engine events, sha256 of the history, first 16 hex
#: digits) under the default schedule (no policy installed)
EXPLORE_PINS = {
    "mp-server/counter": (True, "ok", 283, "a75c5ffcc6ebd0a2"),
    "shm-server/counter": (True, "ok", 705, "4bbd1988e45c3019"),
    "HybComb/counter": (True, "ok", 1036, "44ee944991718a25"),
    "CC-Synch/counter": (True, "ok", 1145, "bf89606c50cc3828"),
    "flat-combining/counter": (True, "ok", 1239, "a794d8865829377a"),
    "HybComb/msqueue": (True, "ok", 1565, "c9b698a9debf45e7"),
    "CC-Synch/stack": (True, "ok", 1639, "cb5d12d5d49b5b00"),
    "direct/lcrq": (True, "ok", 581, "1b349059758dfb29"),
    "direct/treiber": (True, "ok", 1198, "872083334225df68"),
    "direct/pool": (True, "ok", 1341, "a738a74f6663de7d"),
    "mp-server/msqueue": (True, "ok", 605, "51d97d29a34c7d74"),
    "mp-server/stack": (True, "ok", 580, "1d307c097a04a243"),
    "shm-server/msqueue": (True, "ok", 1299, "a6fa332773ac24b1"),
    "shm-server/stack": (True, "ok", 1265, "187270ffd1f5abe3"),
    "HybComb/stack": (True, "ok", 1633, "99640f6b80df230c"),
    "CC-Synch/msqueue": (True, "ok", 1737, "04da7e51303e657b"),
    "flat-combining/msqueue": (True, "ok", 3070, "97b6ca4e90f46c2f"),
    "flat-combining/stack": (True, "ok", 2506, "4cc4c8ae27c71796"),
    "direct/elim": (True, "ok", 1381, "259ed016b151912c"),
    "mp-server-ft/counter@crash": (True, "ok", 412, "ccfeb708dcb6da73"),
    "HybComb/counter@drop": (True, "ok", 529, "e8620f3e3b49162e"),
    "shm-server-cancel/counter@retry": (True, "ok", 604, "68d7eecfe04761d8"),
    "HybComb/counter@256": (True, "ok", 1420, "02485df5fec8ede0"),
    "mp-server-ft/msqueue@256crash": (True, "ok", 993, "e0926c10444dca20"),
    "hybcomb-buggy/counter": (True, "ok", 540, "320390c1d184618a"),
}


def _approach_mini() -> FigureData:
    fig = FigureData("approach-golden", "approach set-up paths", "x", "y")
    for approach in ("HybComb", "CC-Synch"):
        fig.add_point(f"{approach}-fixed", 10,
                      run_counter_benchmark(approach, 10, spec=_SPEC,
                                            fixed_combiner=True))
    crash = FaultPlan(seed=7, faults=(CrashThread(tid=0, at_cycle=23_000),))
    fig.add_point("mp-server-ft", 8,
                  run_fault_recovery_benchmark(8, spec=_SPEC))
    fig.add_point("mp-server-ft-crash", 8,
                  run_fault_recovery_benchmark(8, spec=_SPEC,
                                               fault_plan=crash))
    fig.add_point("overload-ft-crash", 1.5,
                  run_overload_point("mp-server-ft", 60.0, 1.5, "drop",
                                     crash_primary=True))
    fig.add_point("overload-lease", 1.5,
                  run_overload_point("HybComb-lease", 40.0, 1.5, "drop"))
    fig.add_point("backpressure", 10, _backpressure_point(10, 12, _SPEC))
    fig.add_point("oversub", 2, _oversub_point(2, 8, _SPEC))
    for approach in ("HybComb", "mp-server"):
        fig.add_point(f"scale-{approach}", 64,
                      run_scale_point(approach, 64, spec=_SPEC))
    return fig


def _explore_pin(scn):
    out = run_scenario(scn)
    digest = hashlib.sha256(repr(out.history).encode()).hexdigest()
    return (out.ok, out.kind, out.events, digest[:16])


def test_approach_setup_fingerprint():
    assert _approach_mini().fingerprint() == APPROACH_MINI_FINGERPRINT


def test_explore_scenarios_pinned():
    got = {scn.sid: _explore_pin(scn)
           for scn in FULL_MATRIX + [MUTATION_SCENARIO]}
    assert got == EXPLORE_PINS
