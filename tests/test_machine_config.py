"""Tests for machine configuration, profiles, and assembly."""

from dataclasses import fields

import pytest

from repro.machine import Machine, MachineConfig, tile_gx, x86_like
from repro.machine.config import COST_FIELDS, MAX_MESH_DIM, SIZE_FIELDS


# -- config validation --------------------------------------------------------

def test_tile_gx_defaults():
    cfg = tile_gx()
    assert cfg.num_cores == 36
    assert cfg.clock_mhz == 1200
    assert cfg.has_udn
    assert cfg.atomic_at == "controller"
    assert len(cfg.memory_controller_nodes) == 2
    assert cfg.udn_buffer_words == 118
    assert cfg.udn_demux_queues == 4


def test_x86_profile():
    cfg = x86_like()
    assert not cfg.has_udn
    assert cfg.atomic_at == "cache"
    assert cfg.clock_mhz > tile_gx().clock_mhz
    assert cfg.c_remote_base > tile_gx().c_remote_base


def test_overrides_via_factories():
    cfg = tile_gx(mesh_width=4, mesh_height=4, memory_controller_nodes=(0, 15))
    assert cfg.num_cores == 16


def test_with_overrides_returns_validated_copy():
    cfg = tile_gx()
    cfg2 = cfg.with_overrides(clock_mhz=1000)
    assert cfg2.clock_mhz == 1000
    assert cfg.clock_mhz == 1200


@pytest.mark.parametrize("bad", [
    dict(mesh_width=0),
    dict(memory_controller_nodes=(99,)),
    dict(memory_controller_nodes=()),
    dict(atomic_at="nowhere"),
    dict(line_words=0),
    dict(udn_demux_queues=0),
    dict(mesh_height=0),
    dict(mesh_width=MAX_MESH_DIM + 1),
    dict(mesh_height=MAX_MESH_DIM + 1),
])
def test_invalid_configs_rejected(bad):
    """Each refusal starts with the name of the field at fault."""
    (field,) = bad
    with pytest.raises(ValueError, match=f"^{field}\\b"):
        tile_gx(**bad)


def test_every_int_knob_is_a_cost_or_a_size():
    """A new int knob must be classified, so it is validated too."""
    ints = {f.name for f in fields(MachineConfig) if f.type == "int"}
    assert ints == set(COST_FIELDS) | set(SIZE_FIELDS)
    assert not set(COST_FIELDS) & set(SIZE_FIELDS)


@pytest.mark.parametrize("name", COST_FIELDS)
def test_negative_cost_rejected_naming_the_knob(name):
    with pytest.raises(ValueError, match=f"^{name} must be >= 0"):
        tile_gx(**{name: -1})
    assert getattr(tile_gx(**{name: 0}), name) == 0  # a free step is legal


@pytest.mark.parametrize("name", ["clock_mhz", "udn_buffer_words"])
def test_zero_clock_or_buffer_rejected_naming_the_knob(name):
    with pytest.raises(ValueError, match=f"^{name} must be >= 1"):
        tile_gx(**{name: 0})
    assert getattr(tile_gx(**{name: 1}), name) == 1


def test_one_by_one_mesh_keeps_its_duplicate_controllers():
    cfg = tile_gx(mesh_width=1, mesh_height=1, memory_controller_nodes=(0, 0))
    assert Machine(cfg).cfg.num_cores == 1


def test_mops_conversion():
    cfg = tile_gx()
    # 1200 ops in 1200 cycles at 1200 MHz = 1200 Mops/s
    assert cfg.mops(1200, 1200) == pytest.approx(1200.0)
    assert cfg.mops(10, 0) == 0.0


# -- machine assembly -----------------------------------------------------------

def test_machine_has_all_subsystems():
    m = Machine(tile_gx())
    assert len(m.cores) == 36
    assert m.udn is not None
    assert m.mem.atomics is not None
    assert m.contended_mesh is None


def test_contended_machine():
    m = Machine(tile_gx(contended_noc=True))
    assert m.contended_mesh is not None


def test_x86_machine_has_no_udn():
    m = Machine(x86_like())
    assert m.udn is None


def test_thread_placement_defaults_to_tid():
    m = Machine(tile_gx())
    ctx = m.thread(7)
    assert ctx.core.cid == 7


def test_thread_errors():
    m = Machine(tile_gx())
    m.thread(0)
    with pytest.raises(ValueError, match="already exists"):
        m.thread(0)
    with pytest.raises(ValueError, match="out of range"):
        m.thread(1, core_id=99)


def test_work_accumulates_busy():
    m = Machine(tile_gx())
    ctx = m.thread(0)

    def prog():
        yield from ctx.work(25)
        yield from ctx.work(0)  # no-op
        return ctx.core.busy

    p = m.spawn(ctx, prog())
    m.run()
    assert p.result == 25
    assert m.now == 25


def test_core_snapshot_delta():
    m = Machine(tile_gx())
    ctx = m.thread(0)

    def prog():
        yield from ctx.work(10)
        snap = ctx.core.snapshot()
        yield from ctx.work(5)
        return ctx.core.delta(snap)

    p = m.spawn(ctx, prog())
    m.run()
    assert p.result["busy"] == 5
    assert p.result["stall_mem"] == 0


def test_max_events_guard_on_machine():
    m = Machine(tile_gx(), max_events=100)
    ctx = m.thread(0)

    def spin():
        while True:
            yield 1

    m.spawn(ctx, spin())
    with pytest.raises(RuntimeError, match="exceeded"):
        m.run()


# -- cache lines narrower than a primitive's per-thread record -------------------

#: approach -> words of its per-thread record
_RECORD_WORDS = {"CC-Synch": 6, "flat-combining": 6, "shm-server": 5,
                 "HybComb": 4}


@pytest.mark.parametrize("approach", sorted(_RECORD_WORDS))
def test_line_narrower_than_a_record_is_refused(approach):
    """A record one word wider than the line once deadlocked CC-Synch,
    fed flat combining an unknown opcode and silently starved all but
    one SHM-SERVER client.  Construction now refuses the line, naming
    the knob, the primitive and the width; the exact width runs every
    client."""
    from repro.workload.driver import WorkloadSpec
    from repro.workload.scenarios import run_counter_benchmark

    words = _RECORD_WORDS[approach]
    spec = WorkloadSpec(warmup_cycles=2_000, measure_cycles=10_000)
    with pytest.raises(ValueError, match=(
            rf"^line_words={words - 1} is too narrow for {approach}: "
            rf"its per-thread record needs {words} words$")):
        run_counter_benchmark(approach, 8, spec=spec,
                              cfg=tile_gx(line_words=words - 1))
    r = run_counter_benchmark(approach, 8, spec=spec,
                              cfg=tile_gx(line_words=words))
    assert min(r.per_thread_ops) > 0


def test_cancellable_channel_needs_the_claim_word():
    from repro.core import OpTable, ShmServer

    m = Machine(tile_gx(line_words=5))
    ShmServer(m, OpTable(), client_tids=[1])
    with pytest.raises(ValueError, match="^line_words=5 is too narrow for "
                                         "shm-server: its per-thread record needs 6"):
        ShmServer(Machine(tile_gx(line_words=5)), OpTable(), client_tids=[1],
                  cancellable=True)


def test_two_word_records_need_two_word_lines():
    """The fault-tolerant MP-SERVER's dedup slot and the MCS queue node
    hold two words; the plain MP-SERVER keeps no per-client record."""
    from repro.core import MCSLock, MPServer, OpTable

    def narrow():
        return Machine(tile_gx(line_words=1))

    with pytest.raises(ValueError, match="^line_words=1 is too narrow for "
                                         "mp-server: its per-thread record needs 2"):
        MPServer(narrow(), OpTable(), request_timeout=1_000)
    MPServer(narrow(), OpTable())
    with pytest.raises(ValueError, match="^line_words=1 is too narrow for mcs"):
        MCSLock(narrow())
    MCSLock(Machine(tile_gx(line_words=2)))
