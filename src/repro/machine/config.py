"""Machine configuration and the calibrated hardware profiles.

All cost constants of the simulated chip live in one dataclass so that a
profile is a single, inspectable object.  Two factory profiles are
provided:

* :func:`tile_gx` -- calibrated against the numbers the paper itself
  reports for the TILE-Gx8036 (see the derivation notes on each field).
* :func:`x86_like` -- a single-socket x86 flavour for the Section 5.5
  discussion: no hardware message passing for applications, cheaper
  *local* atomics (executed in the cache hierarchy, not at memory
  controllers), but costlier coherence misses.

Calibration anchors (from the paper's own measurements):

* Figure 4a: MP-SERVER ~12 total cycles/op with ~0 stalls; SHM-SERVER and
  CC-SYNCH ~45-55 cycles/op of which >50% stalled.
* Figure 4c: the "ideal" CS body costs ~6.5 cycles per loop iteration;
  the short-CS overhead gap between SHM and MP approaches is ~30 cycles.
* Figure 3a: peak counter throughput ~105-110 Mops/s (MP-SERVER),
  ~25 Mops/s (SHM-SERVER / CC-SYNCH) at 1.2 GHz.
* Figure 3c: HYBCOMB ~65 Mops/s at MAX_OPS=200 rising to ~88 Mops/s at
  MAX_OPS=5000 => combiner handover costs on the order of 10^3 cycles.
"""

from __future__ import annotations

import hashlib
from dataclasses import asdict, dataclass, replace
from typing import Tuple

__all__ = ["COST_FIELDS", "MAX_MESH_DIM", "SIZE_FIELDS", "MachineConfig",
           "controller_nodes_for_mesh", "mesh_profile", "scc_like", "tile_gx",
           "x86_like"]

#: largest supported rectangular mesh edge (32x32 = 1024 cores).  The
#: simulator's data structures stay O(1) per event well past this, but
#: thread/process bookkeeping is still O(cores) per *run*, and the cap
#: keeps a typo'd config from silently requesting a million cores.
MAX_MESH_DIM = 32

#: the cycle-cost knobs: 0 is a free step, a negative cost is refused
#: (it schedules work in the past or charges negative busy time)
COST_FIELDS = (
    "noc_base", "noc_per_hop", "noc_per_word", "link_occupancy",
    "c_hit", "c_remote_base", "c_mem_base", "c_fence",
    "c_dir_read_occupancy", "c_atomic_service", "c_atomic_service_cold",
    "c_atomic_issue", "c_atomic_travel_extra", "c_atomic_local",
    "udn_send_base", "udn_send_per_word", "udn_recv_base",
    "udn_recv_per_word", "udn_probe_cost", "work_cycles_per_iteration",
)

#: the count and size knobs, each at least 1: a 0 MHz clock reports
#: every throughput as 0.0 Mops/s, and a 0-word buffer holds no message
SIZE_FIELDS = (
    "mesh_width", "mesh_height", "clock_mhz", "line_words",
    "udn_buffer_words", "udn_demux_queues",
)


@dataclass
class MachineConfig:
    """Every knob of the simulated chip.  Cycle costs unless noted."""

    name: str = "generic"

    # -- layout ----------------------------------------------------------
    #: mesh dimensions; cores are numbered row-major over the mesh
    mesh_width: int = 6
    mesh_height: int = 6
    #: clock frequency in MHz (1.2 GHz for the TILE-Gx8036)
    clock_mhz: int = 1200
    #: mesh nodes hosting memory controllers (atomics execute there)
    memory_controller_nodes: Tuple[int, ...] = (2, 33)

    # -- mesh latency model ----------------------------------------------
    noc_base: int = 4          #: fixed router/injection/ejection overhead
    noc_per_hop: int = 1       #: cycles per mesh hop
    noc_per_word: int = 1      #: extra cycles per additional payload word
    #: use the hop-by-hop contended link model instead of the analytic one
    contended_noc: bool = False
    link_occupancy: int = 1    #: per-word link occupancy in contended mode

    # -- cache / coherence -----------------------------------------------
    line_words: int = 8        #: 64-byte lines of 64-bit words
    c_hit: int = 2             #: L1 load/store hit
    #: base stall for a load miss serviced cache-to-cache (plus hop
    #: costs); calibrated so one un-overlapped RMR ~ 35 cycles at
    #: typical distances and the servicing thread's residual stall per
    #: short CS lands at the ~27-30 cycles of Figure 4a
    c_remote_base: int = 28
    #: base stall for a load miss serviced from memory/L3
    c_mem_base: int = 40
    #: fixed cost of a memory fence, on top of waiting for the store
    #: buffer to drain (simulated directly, see
    #: CoherentMemory.drain_store_buffer).  On the TILE-Gx an MF is a
    #: memory-network round trip confirming global visibility, which is
    #: why the paper finds that for the two-lock MS-Queue "the necessity
    #: of inserting fences far outweighs the benefit from fine-grained
    #: access".
    c_fence: int = 25
    #: directory occupancy per *read* transaction.  Reads are pipelined:
    #: the directory answers quickly and the data transfer streams, so
    #: concurrent readers of one line do not serialize for the full
    #: transfer latency (writes/ownership transfers still do).
    c_dir_read_occupancy: int = 4

    # -- atomics (FAA / SWAP / CAS) ----------------------------------------
    #: where read-modify-writes execute: "controller" (TILE-Gx: at the
    #: memory controllers, never in the local cache) or "cache" (x86-like:
    #: in the owning cache, cost ~ a hit once the line is owned)
    atomic_at: str = "controller"
    #: controller occupancy per atomic when the target line is the one
    #: the controller just operated on ("hot": the line is resident at
    #: the controller and RMWs stream through it).  Upper-bounded by the
    #: paper's own data: HYBCOMB sustains ~88 Mops/s of FAAs on a single
    #: word (Fig 3c), i.e. one same-word FAA per ~13.6 cycles.
    c_atomic_service: int = 4
    #: controller occupancy when the target line is *not* resident at
    #: the controller (it must be fetched/owned first).  This is the
    #: "false serialization" quantum of Section 5.4: a workload whose
    #: atomics spray across many lines (LCRQ) serializes at this cost
    #: even when the data sets are independent.
    c_atomic_service_cold: int = 90
    #: fixed pipeline overhead at the issuing core per atomic
    c_atomic_issue: int = 4
    #: extra one-way transit through the memory network per atomic (on
    #: top of mesh hops).  This is pipelined -- it adds round-trip
    #: *latency* on the issuing core but no controller occupancy -- and
    #: is what makes every Treiber CAS attempt a ~60-cycle round trip
    #: while leaving HYBCOMB's overlapped client FAAs free to stream.
    c_atomic_travel_extra: int = 20
    #: cache-resident atomic cost for atomic_at == "cache"
    c_atomic_local: int = 18

    # -- UDN (hardware message passing) ------------------------------------
    #: the machine has application-visible hardware message passing
    has_udn: bool = True
    #: the machine has *coherent* shared memory.  When False (an Intel
    #: SCC-like message-passing-only chip), memory is private per core:
    #: loads/stores/atomics are always local, and touching a cache line
    #: from a second core raises -- enforcing the private-memory
    #: discipline such chips require.  MP-SERVER runs unchanged on such
    #: a machine; HYBCOMB (which manages combiner identity in shared
    #: memory) cannot, which is exactly the paper's point about hybrid
    #: processors offering "the best of both worlds".
    has_coherent_shm: bool = True
    #: per-core hardware buffer capacity in 64-bit words (118 on TILE-Gx)
    udn_buffer_words: int = 118
    #: hardware demux queues per core buffer (4 on TILE-Gx)
    udn_demux_queues: int = 4
    udn_send_base: int = 2     #: injection cost paid by the sender (busy)
    udn_send_per_word: int = 1
    udn_recv_base: int = 1     #: cost to pop from a non-empty local queue
    udn_recv_per_word: int = 1
    udn_probe_cost: int = 1    #: is_queue_empty()

    # -- misc ---------------------------------------------------------------
    work_cycles_per_iteration: int = 1  #: cost of one empty-loop iteration
    #: enable expensive internal invariant checking (coherence SWMR,
    #: HYBCOMB CSqueue invariants); used by the test-suite
    debug_checks: bool = False

    # -------------------------------------------------------------------
    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        """Refuse a config no run can use; each error starts with the
        name of the field at fault."""
        for name in SIZE_FIELDS:
            if getattr(self, name) < 1:
                raise ValueError(
                    f"{name} must be >= 1, got {getattr(self, name)}")
        for name in ("mesh_width", "mesh_height"):
            if getattr(self, name) > MAX_MESH_DIM:
                raise ValueError(
                    f"{name} must be <= {MAX_MESH_DIM}, got "
                    f"{getattr(self, name)} (at most {MAX_MESH_DIM}x"
                    f"{MAX_MESH_DIM} = {MAX_MESH_DIM * MAX_MESH_DIM} cores)")
        n = self.mesh_width * self.mesh_height
        if not self.memory_controller_nodes:
            raise ValueError(
                "memory_controller_nodes is empty: need at least one "
                "memory controller")
        for node in self.memory_controller_nodes:
            if not (0 <= node < n):
                raise ValueError(
                    f"memory_controller_nodes: node {node} outside the "
                    f"{n}-node mesh")
        if self.atomic_at not in ("controller", "cache"):
            raise ValueError(
                "atomic_at must be 'controller' or 'cache', "
                f"got {self.atomic_at!r}")
        for name in COST_FIELDS:
            if getattr(self, name) < 0:
                raise ValueError(
                    f"{name} must be >= 0 cycles, got {getattr(self, name)}")

    @property
    def num_cores(self) -> int:
        return self.mesh_width * self.mesh_height

    def with_overrides(self, **kw) -> "MachineConfig":
        """A copy of this config with fields replaced (validated)."""
        return replace(self, **kw)

    def fingerprint(self) -> str:
        """Stable short hash over every knob of this profile.

        Tags benchmark baselines (``BENCH_*.json``) so a regression gate
        never compares numbers measured under different cost models.
        """
        blob = repr(sorted(asdict(self).items()))
        return hashlib.sha256(blob.encode()).hexdigest()[:12]

    def mops(self, ops: int, cycles: int) -> float:
        """Convert an (ops, cycles) measurement to Mops/s at this clock.

        ``clock_mhz`` cycles happen per microsecond * 1e6 == cycles/s, so
        Mops/s = ops * clock_mhz / cycles (MHz cancels the 1e6).
        """
        if cycles <= 0:
            return 0.0
        return ops * self.clock_mhz / cycles


def tile_gx(**overrides) -> MachineConfig:
    """The calibrated TILE-Gx8036 profile (36 cores, 6x6 mesh, 1.2 GHz)."""
    cfg = MachineConfig(name="tile-gx8036")
    if overrides:
        cfg = cfg.with_overrides(**overrides)
    return cfg


def controller_nodes_for_mesh(width: int, height: int) -> Tuple[int, ...]:
    """Memory-controller placement for a ``width x height`` mesh.

    Controllers come in top/bottom pairs spread along the mesh edges
    (one pair per 8 columns, minimum one), mirroring how the TILE-Gx
    hangs its DDR controllers off the mesh boundary.  At 6x6 this
    reproduces the calibrated :func:`tile_gx` placement exactly:
    top ``(2, 0)`` and bottom ``(3, 5)``, i.e. nodes ``(2, 33)``.
    """
    npairs = max(1, width // 8)
    top_xs = [((i + 1) * width) // (npairs + 2) for i in range(npairs)]
    top = [x for x in top_xs]
    bottom = [(height - 1) * width + (width - 1 - x) for x in top_xs]
    return tuple(top + bottom)


def mesh_profile(width: int, height: int, **overrides) -> MachineConfig:
    """A TILE-Gx-calibrated profile scaled to a ``width x height`` mesh.

    Cost constants are the :func:`tile_gx` calibration -- the point of
    the scaling experiments is to grow the *machine*, not to re-guess
    per-hop costs -- with memory controllers re-placed for the larger
    edge (:func:`controller_nodes_for_mesh`).  At 6x6 this *is*
    :func:`tile_gx`, bit-identical, so 36-core scaling points are
    directly comparable with every fig3-family figure.  Meshes are
    validated up to 32x32 (1024 cores).
    """
    if (width, height) == (6, 6):
        return tile_gx(**overrides)
    cfg = MachineConfig(
        name=f"tile-mesh-{width}x{height}",
        mesh_width=width,
        mesh_height=height,
        memory_controller_nodes=controller_nodes_for_mesh(width, height),
    )
    if overrides:
        cfg = cfg.with_overrides(**overrides)
    return cfg


def scc_like(**overrides) -> MachineConfig:
    """An Intel-SCC-like message-passing-only manycore (48 cores).

    Hardware message buffers but *no coherent shared memory*: each
    core's memory is private, so only delegation designs whose shared
    state is a single owner's (MP-SERVER) can run.  Used by the
    discussion experiments to show that HYBCOMB genuinely requires a
    hybrid machine.
    """
    cfg = MachineConfig(
        name="scc-like",
        mesh_width=8,
        mesh_height=6,
        clock_mhz=1000,
        memory_controller_nodes=(0, 47),
        has_coherent_shm=False,
        udn_buffer_words=1024,   # the SCC's per-core message-passing buffer
    )
    if overrides:
        cfg = cfg.with_overrides(**overrides)
    return cfg


def x86_like(**overrides) -> MachineConfig:
    """A single-socket x86 flavour for the Section 5.5 discussion.

    No application-visible hardware message passing; atomics execute in
    the cache hierarchy (fast once the line is owned, but they bounce the
    line under contention); coherence misses stall longer, matching the
    paper's observation of "proportionally larger" stall counts on the
    Xeon/Opteron.
    """
    cfg = MachineConfig(
        name="x86-like",
        mesh_width=4,
        mesh_height=4,
        clock_mhz=2400,
        memory_controller_nodes=(0, 15),
        has_udn=False,
        atomic_at="cache",
        # cache-to-cache transfers on big OOO x86 parts cost on the
        # order of 100+ cycles -- far more than the TILE-Gx's mesh -- so
        # the servicing thread shows "proportionally larger" stall
        # counts (Section 5.5) and lower absolute peak throughput
        # despite the 2x clock
        c_remote_base=110,
        c_mem_base=220,
        c_fence=6,
        c_atomic_local=25,
    )
    if overrides:
        cfg = cfg.with_overrides(**overrides)
    return cfg
