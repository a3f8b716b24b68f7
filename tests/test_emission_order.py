"""Same-cycle emission order of the background hardware transactions.

Store-buffer drains, prefetches and contended mesh packets run as light
scheduler entries rather than processes.  Each one must step in exactly
the cycle and the same-cycle position its process did, or the order of
the events the hardware models emit moves.  These pins are the sha256
of a seed-42 ``EventLog`` -- every :data:`repro.obs.bus.LOG_KINDS` event
with its cycle, in emission order -- for two short runs that exercise
all three transaction kinds, recorded while each was still a spawned
process:

* HybComb on a 4x4 contended mesh: packets queue at links hop by hop,
  so ``noc.link`` and ``udn.deliver`` order follows the packet steps;
* CC-Synch on the TILE-Gx: the servicing loop prefetches the next
  request and drains buffered store misses in the background.
"""

from __future__ import annotations

import hashlib

import repro.obs as obs
from repro.machine.config import mesh_profile
from repro.workload.driver import WorkloadSpec
from repro.workload.scenarios import build_counter

#: sha256 of the HybComb contended-mesh run's event log
HYBCOMB_CONTENDED_DIGEST = (
    "299ca7cfc9a4a39c0e28a4cd867d45fff958eb954a950888ed1355e788ee6f4c")
#: sha256 of the CC-Synch run's event log
CCSYNCH_PREFETCH_DIGEST = (
    "569b6eb1fc1b006d39e6e7755a4c21f6669b8c2e78bae449eec1a94159462f0a")

_SPEC = WorkloadSpec(warmup_cycles=2_000, measure_cycles=20_000, seed=42)


def _log(approach: str, threads: int, cfg=None):
    """The event log of one observed seed-42 counter run."""
    with obs.observed(trace=True) as session:
        run = build_counter(approach, threads, cfg=cfg)
        run.closed_loop(_SPEC, approach)
    (rec,) = session.records()
    assert not rec.trace.truncated
    return rec.trace.events


def _digest(events) -> str:
    return hashlib.sha256(repr(events).encode()).hexdigest()


def _count(events, kind: str) -> int:
    return sum(1 for e in events if e[1] == kind)


def test_hybcomb_contended_mesh_emission_order():
    events = _log("HybComb", 12, mesh_profile(4, 4, contended_noc=True))
    # the run must exercise what the pin guards: hop-by-hop packets,
    # some of which queue behind a busy link
    assert _count(events, "noc.link") > 1_000
    assert _count(events, "udn.deliver") > 100
    assert sum(1 for e in events if e[1] == "noc.link" and e[2][2] > 0) > 50
    assert _digest(events) == HYBCOMB_CONTENDED_DIGEST


def test_ccsynch_prefetch_emission_order():
    events = _log("CC-Synch", 12)
    assert _count(events, "cache.miss") > 1_000
    assert _digest(events) == CCSYNCH_PREFETCH_DIGEST
