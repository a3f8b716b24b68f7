"""Tests for the workload driver, metrics, and scenario builders."""

import numpy as np
import pytest

from repro.core import MPServer, OpTable
from repro.machine import Machine, tile_gx
from repro.objects import LockedCounter
from repro.workload import (
    WorkloadSpec,
    run_counter_benchmark,
    run_cs_length_benchmark,
    run_queue_benchmark,
    run_stack_benchmark,
    run_workload,
)
from repro.workload.driver import think_table
from repro.workload.metrics import RunResult


# -- RunResult math ---------------------------------------------------------

def test_throughput_conversion():
    r = RunResult(name="x", num_threads=1, window_cycles=120_000, ops=1200,
                  clock_mhz=1200)
    # 1200 ops in 120k cycles at 1.2GHz = 12 Mops/s
    assert r.throughput_mops == pytest.approx(12.0)


def test_throughput_empty_window():
    r = RunResult(name="x", num_threads=1, window_cycles=0, ops=0, clock_mhz=1200)
    assert r.throughput_mops == 0.0


def test_cycles_per_op():
    r = RunResult(name="x", num_threads=1, window_cycles=1000, ops=50, clock_mhz=1200)
    assert r.cycles_per_op == 20.0
    r0 = RunResult(name="x", num_threads=1, window_cycles=1000, ops=0, clock_mhz=1200)
    assert r0.cycles_per_op == float("inf")


def test_fairness_ratio():
    r = RunResult(name="x", num_threads=3, window_cycles=1, ops=60, clock_mhz=1,
                  per_thread_ops=[10, 20, 30])
    assert r.fairness_ratio == 3.0
    r_ideal = RunResult(name="x", num_threads=2, window_cycles=1, ops=20, clock_mhz=1,
                        per_thread_ops=[10, 10])
    assert r_ideal.fairness_ratio == 1.0
    r_starved = RunResult(name="x", num_threads=2, window_cycles=1, ops=10, clock_mhz=1,
                          per_thread_ops=[10, 0])
    assert r_starved.fairness_ratio == float("inf")


def test_summary_mentions_key_numbers():
    r = RunResult(name="abc", num_threads=4, window_cycles=1000, ops=100,
                  clock_mhz=1200, mean_latency_cycles=55.0)
    s = r.summary()
    assert "abc" in s and "T=4" in s and "120.0" in s


# -- driver ----------------------------------------------------------------

def build_counter(num_clients):
    m = Machine(tile_gx())
    table = OpTable()
    prim = MPServer(m, table, server_tid=0)
    counter = LockedCounter(prim)
    prim.start()
    ctxs = [m.thread(t) for t in range(1, num_clients + 1)]
    return m, prim, counter, ctxs


def make_counter_op(counter):
    def make_op(ctx):
        def op(k):
            yield from counter.increment(ctx)
        return op
    return make_op


def test_driver_counts_only_window_ops():
    m, prim, counter, ctxs = build_counter(4)
    spec = WorkloadSpec(warmup_cycles=10_000, measure_cycles=20_000)
    r = run_workload(m, ctxs, make_counter_op(counter), spec, name="t", prim=prim)
    total_executed = counter.value()
    assert 0 < r.ops < total_executed  # warmup ops excluded


def test_driver_latency_and_per_thread_ops():
    m, prim, counter, ctxs = build_counter(3)
    r = run_workload(m, ctxs, make_counter_op(counter), WorkloadSpec.quick(),
                     name="t", prim=prim)
    assert len(r.per_thread_ops) == 3
    assert sum(r.per_thread_ops) == r.ops
    assert r.mean_latency_cycles > 0
    assert r.p95_latency_cycles >= r.mean_latency_cycles


def test_driver_same_seed_reproduces_exactly():
    def once():
        m, prim, counter, ctxs = build_counter(5)
        return run_workload(m, ctxs, make_counter_op(counter),
                            WorkloadSpec(seed=9), name="t", prim=prim)

    a, b = once(), once()
    assert a.ops == b.ops
    assert a.mean_latency_cycles == b.mean_latency_cycles
    assert a.per_thread_ops == b.per_thread_ops


def test_driver_different_seed_differs():
    def once(seed):
        m, prim, counter, ctxs = build_counter(5)
        return run_workload(m, ctxs, make_counter_op(counter),
                            WorkloadSpec(seed=seed), name="t", prim=prim)

    assert once(1).per_thread_ops != once(2).per_thread_ops


def test_service_stats_for_server():
    m, prim, counter, ctxs = build_counter(6)
    r = run_workload(m, ctxs, make_counter_op(counter), WorkloadSpec.quick(),
                     name="t", prim=prim)
    assert r.service_cycles_per_op > 0
    assert r.service_stall_per_op <= 1.0  # mp-server: no coherence stalls


# -- scenario builders ---------------------------------------------------------

@pytest.mark.parametrize("kw", [
    {"warmup_cycles": -1},
    {"measure_cycles": 0},
    {"measure_cycles": -100},
    {"think_max_iterations": -1},
    {"seed": -1},
    {"seed": 1.5},
    {"seed": "42"},
    {"seed": True},
])
def test_workload_spec_rejects_bad_parameters(kw):
    with pytest.raises(ValueError):
        WorkloadSpec(**kw)


def test_workload_spec_accepts_boundary_values():
    spec = WorkloadSpec(warmup_cycles=0, measure_cycles=1,
                        think_max_iterations=0, seed=0)
    assert spec.measure_cycles == 1


@pytest.mark.parametrize("bound, dtype, first, second", [
    # a 16-bit draw would read [45, 26, 296, 232, 300, 197] here
    (300, np.uint16, ([26, 232, 197, 132, 130, 258], 614860),
     ([161, 44, 238, 101, 27, 297], 601706)),
    # past 65,535: a table stored in 16 bits would wrap these
    (70_000, np.uint32, ([6247, 54177, 45820, 30721, 30311, 60102], 143465368),
     ([37532, 10272, 55561, 23540, 6431, 69136], 140406268)),
])
def test_think_tables_keep_the_int64_draw_in_a_compact_type(
        bound, dtype, first, second):
    """Each thread's table is drawn int64 (its values and the stream the
    next thread's draw continues from are pinned) and stored in the
    smallest unsigned type that holds the bound."""
    rng = np.random.default_rng(42)
    for head, total in (first, second):
        thinks = think_table(rng, bound)
        assert thinks.dtype == dtype and len(thinks) == 4096
        assert thinks[:6].tolist() == head
        assert int(thinks.sum(dtype=np.int64)) == total
        assert thinks.max() <= bound
    assert think_table(np.random.default_rng(42), 50).dtype == np.uint8


def test_run_workload_rejects_empty_ctxs():
    m = Machine(tile_gx())
    with pytest.raises(ValueError, match="at least one"):
        run_workload(m, [], lambda ctx: None, WorkloadSpec.quick())


def test_counter_benchmark_rejects_too_many_threads():
    with pytest.raises(ValueError, match="exceed"):
        run_counter_benchmark("mp-server", 36)
    with pytest.raises(ValueError, match="exceed"):
        run_counter_benchmark("HybComb", 37)


def test_counter_benchmark_unknown_approach():
    with pytest.raises(ValueError, match="unknown approach"):
        run_counter_benchmark("bogus", 4)


def test_cs_length_benchmark_reports_iterations():
    spec = WorkloadSpec(warmup_cycles=5_000, measure_cycles=20_000)
    r = run_cs_length_benchmark("mp-server", 4, 7, spec=spec)
    assert r.extra["cs_iterations"] == 7
    assert r.ops > 0


@pytest.mark.parametrize("impl", ["mp-server-1", "HybComb-1", "shm-server-1",
                                  "CC-Synch-1", "mp-server-2", "LCRQ"])
def test_queue_benchmark_all_impls_run(impl):
    spec = WorkloadSpec(warmup_cycles=5_000, measure_cycles=20_000)
    r = run_queue_benchmark(impl, 6, spec=spec)
    assert r.ops > 0
    assert "empty_dequeues" in r.extra


@pytest.mark.parametrize("impl", ["mp-server", "HybComb", "shm-server",
                                  "CC-Synch", "Treiber"])
def test_stack_benchmark_all_impls_run(impl):
    spec = WorkloadSpec(warmup_cycles=5_000, measure_cycles=20_000)
    r = run_stack_benchmark(impl, 6, spec=spec)
    assert r.ops > 0
    assert "empty_pops" in r.extra


def test_fixed_combiner_mode_reports_clean_service_stats():
    spec = WorkloadSpec(warmup_cycles=10_000, measure_cycles=30_000)
    r = run_counter_benchmark("HybComb", 10, spec=spec, fixed_combiner=True)
    assert r.service_cycles_per_op > 0
    assert r.service_stall_per_op <= 1.0


def test_queue_benchmark_balanced_load_is_balanced():
    spec = WorkloadSpec(warmup_cycles=5_000, measure_cycles=40_000)
    r = run_queue_benchmark("mp-server-1", 8, spec=spec)
    # alternating enqueue/dequeue keeps the queue near-empty but never
    # starved: a balanced run sees only a small fraction of EMPTY returns
    assert r.extra["empty_dequeues"] <= r.ops * 0.2
