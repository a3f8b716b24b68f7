"""Figure 4a from the perf counter file.

Acceptance test: the servicing thread's stall-vs-execution breakdown
(Figure 4a) is visible in the ``obs.*`` extras, and the stall registers
behind it -- the cores' own -- equal the stall cycles rebuilt
independently from bus events by the reference counter file.
"""

import pytest

import repro.obs as obs
from repro.workload.scenarios import run_counter_benchmark
from repro.workload.driver import WorkloadSpec
from tests.helpers import assert_event_stalls_equal_hw, attach_oracles


@pytest.mark.parametrize("approach,kwargs", [
    ("mp-server", {}),
    ("CC-Synch", {"fixed_combiner": True}),
])
def test_fig4a_breakdown_from_counters(monkeypatch, approach, kwargs):
    refs = attach_oracles(monkeypatch)
    with obs.observed() as session:
        result = run_counter_benchmark(
            approach, 10, spec=WorkloadSpec.quick(), **kwargs)
    assert len(session.machines) == 1
    assert result.ops > 0
    assert result.service_cycles_per_op > 0

    obs_total = result.extra["obs.service_cycles_per_op"]
    obs_stall = result.extra["obs.service_stall_per_op"]
    (ref,) = refs
    assert_event_stalls_equal_hw(ref)

    # the paper's qualitative claim (Figure 4a): the shared-memory
    # combiner stalls for most of its service time, the message-passing
    # server for (almost) none of it -- visible straight from counters
    if approach == "mp-server":
        assert obs_stall / obs_total < 0.1
    else:
        assert obs_stall / obs_total > 0.5


def test_fig4a_latency_percentiles_populated():
    with obs.observed():
        result = run_counter_benchmark(
            "mp-server", 8, spec=WorkloadSpec.quick())
    assert 0 < result.p50_latency_cycles <= result.p95_latency_cycles
    assert result.p95_latency_cycles <= result.p99_latency_cycles
    assert result.mean_latency_cycles > 0


def test_obs_extras_present_and_consistent():
    with obs.observed() as session:
        result = run_counter_benchmark(
            "CC-Synch", 8, spec=WorkloadSpec.quick(), fixed_combiner=True)
    for key in ("obs.misses", "obs.invalidations", "obs.hottest_line",
                "obs.hottest_line_stall_cycles"):
        assert key in result.extra, key
    # a contended combining run misses and invalidates constantly
    assert result.extra["obs.misses"] > 0
    assert result.extra["obs.invalidations"] > 0
    # the machine label carries the run name for merged trace exports
    assert session.machines[0].label == "CC-Synch T=8"
