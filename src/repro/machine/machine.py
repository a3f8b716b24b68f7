"""The assembled chip and the programming interface of simulated threads.

:class:`Machine` wires together the simulator, the mesh, the coherent
memory fabric, the atomics executor and (when the profile has one) the
UDN message fabric, and creates one :class:`~repro.machine.core.Core`
per mesh node.

:class:`ThreadCtx` is what algorithm code programs against -- the
"instruction set" of a simulated thread.  Every method is a generator to
be driven with ``yield from``:

========================  =====================================================
``work(n)``               retire ``n`` cycles of local computation
``load / store``          coherent shared-memory access
``faa / swap / cas``      atomic read-modify-write (Section 2 definitions)
``fence``                 memory fence (store-buffer drain)
``spin_until``            local spinning until a predicate holds
``send / receive``        hardware message passing (Section 2 definitions)
``is_queue_empty``        probe the local hardware queue
========================  =====================================================
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Generator, List, NoReturn, Optional, Sequence

from repro.machine.config import MachineConfig, tile_gx
from repro.machine.core import Core
from repro.mem.atomics import make_atomics
from repro.mem.cache import CoherentMemory
from repro.noc.router import ContendedMesh
from repro.noc.topology import Mesh
from repro.sim.engine import DeadlockError, Process, Simulator
from repro.udn.udn import UdnFabric

__all__ = ["Machine", "ThreadCtx"]


class Machine:
    """A simulated hybrid manycore chip."""

    def __init__(self, cfg: Optional[MachineConfig] = None, *, max_events: Optional[int] = None):
        self.cfg = cfg = cfg if cfg is not None else tile_gx()
        self.sim = Simulator(max_events=max_events)
        self.mesh = Mesh(
            cfg.mesh_width,
            cfg.mesh_height,
            base=cfg.noc_base,
            per_hop=cfg.noc_per_hop,
            per_word=cfg.noc_per_word,
        )
        self.cores: List[Core] = [Core(cid, cid) for cid in range(cfg.num_cores)]
        self.mem = CoherentMemory(self.sim, cfg, self.mesh, self.cores)
        self.mem.atomics = make_atomics(self.sim, cfg, self.mesh, self.mem)
        self.contended_mesh = (
            ContendedMesh(self.sim, self.mesh, link_occupancy=cfg.link_occupancy)
            if cfg.contended_noc
            else None
        )
        self.udn: Optional[UdnFabric] = (
            UdnFabric(self.sim, cfg, self.mesh, self.cores, contended_mesh=self.contended_mesh)
            if cfg.has_udn
            else None
        )
        self._threads: Dict[int, "ThreadCtx"] = {}
        self._procs_by_tid: Dict[int, List[Process]] = {}
        # join the active observability session, if one is open
        # (``python -m repro run --obs trace`` / repro.obs.observed())
        import repro.obs as _obs
        self.obs = _obs.attach(self)

    def enable_observability(self, **options):
        """Turn on the event bus / perf counters for this machine.

        Returns the :class:`repro.obs.Observability` handle (idempotent:
        a second call returns the existing one); its ``record()`` is the
        run's observed state as one picklable :class:`repro.obs.ObsRecord`.
        ``trace=True`` also records the machine's event log
        (``trace_limit`` caps it), which the Chrome trace export, the
        critical-path analysis and
        :func:`repro.analysis.render.render_timeline` read; further
        options (``label``, ``timeseries``, ``sample_every``, ``slos``,
        ``flight``, ``incident_dir``, ...) enable the continuous
        telemetry layers of DESIGN.md §14.  To observe every machine a
        block of code builds, use :func:`repro.obs.observed` instead.
        """
        if self.obs is None:
            import repro.obs as _obs
            self.obs = _obs.Observability(self, **options)
        return self.obs

    # -- thread management ----------------------------------------------
    def thread(self, tid: int, core_id: Optional[int] = None, demux: int = 0) -> "ThreadCtx":
        """Create (and UDN-register) thread ``tid`` pinned to ``core_id``.

        Default placement follows the paper's methodology: thread ``i``
        pinned to core ``i``.  Oversubscription is expressed by pinning
        several tids to one core with distinct ``demux`` queues.
        """
        if tid in self._threads:
            raise ValueError(f"thread {tid} already exists")
        core_id = tid if core_id is None else core_id
        if not (0 <= core_id < len(self.cores)):
            raise ValueError(
                f"core {core_id} out of range (machine has {len(self.cores)} cores)"
            )
        ctx = ThreadCtx(self, tid, self.cores[core_id])
        if self.udn is not None:
            self.udn.register(tid, core_id, demux)
        self._threads[tid] = ctx
        return ctx

    def spawn(self, ctx: "ThreadCtx", gen: Generator, name: Optional[str] = None,
              daemon: bool = False) -> Process:
        """Run ``gen`` as ``ctx``'s program.

        ``daemon`` marks service loops that may idle forever (exempt from
        deadlock detection).  The process is recorded under ``ctx.tid``
        so the fault injector can target it by thread id.
        """
        proc = self.sim.spawn(gen, name=name or f"t{ctx.tid}", daemon=daemon)
        self._procs_by_tid.setdefault(ctx.tid, []).append(proc)
        return proc

    def procs_of(self, tid: int) -> List[Process]:
        """All processes ever spawned for thread ``tid`` (fault targeting)."""
        return list(self._procs_by_tid.get(tid, ()))

    def run(self, until: Optional[int] = None) -> None:
        try:
            self.sim.run(until=until)
        except DeadlockError as e:
            # the flight recorder's deadlock trigger: capture the recent
            # event tail before the exception unwinds the run
            ob = self.obs
            if ob is not None and ob.flight is not None:
                ob.flight.record_incident("deadlock", detail=str(e))
            raise

    @property
    def now(self) -> int:
        return self.sim.now


class ThreadCtx:
    """The execution context of one simulated thread (see module docs)."""

    __slots__ = ("machine", "tid", "core", "mem", "udn", "sim")

    def __init__(self, machine: Machine, tid: int, core: Core):
        self.machine = machine
        self.tid = tid
        self.core = core
        self.mem = machine.mem
        self.udn = machine.udn
        self.sim = machine.sim

    # -- computation ------------------------------------------------------
    def work(self, cycles: int) -> Generator[Any, Any, None]:
        """Local computation: ``cycles`` busy cycles, no shared state."""
        cycles = int(cycles)  # accept numpy integers from rng-driven loops
        if cycles > 0:
            self.core.busy += cycles
            yield cycles

    def sched_point(self, tag: str) -> Generator[Any, Any, None]:
        """Annotated preemption point (schedule-exploration seam).

        Algorithms mark their racy windows -- CAS retry loops, combiner
        handoff, server poll -- with ``yield from ctx.sched_point(tag)``
        behind an ``if ctx.sim.policy is not None`` guard, so default
        runs create no generator and execute no extra cycles.  When a
        policy is installed it may answer with a delay, modelling the
        thread being preempted (descheduled) at exactly that step; the
        cycles are charged as ``wait`` (idle), not busy work.
        """
        policy = self.sim.policy
        if policy is None:
            return
        delay = int(policy.preempt(tag, self.tid, self.sim.now))
        if delay > 0:
            self.core.wait += delay
            yield delay

    # -- coherent shared memory (these hand back the layer's generator) ---
    def load(self, addr: int) -> Generator[Any, Any, int]:
        return self.mem.load(self.core, addr)

    def store(self, addr: int, value: int) -> Generator[Any, Any, None]:
        return self.mem.store(self.core, addr, value)

    def faa(self, addr: int, delta: int) -> Generator[Any, Any, int]:
        return self.mem.faa(self.core, addr, delta)

    def swap(self, addr: int, value: int) -> Generator[Any, Any, int]:
        return self.mem.swap(self.core, addr, value)

    def cas(self, addr: int, expected: int, new: int) -> Generator[Any, Any, bool]:
        return self.mem.cas(self.core, addr, expected, new)

    def fence(self) -> Generator[Any, Any, None]:
        return self.mem.fence(self.core)

    def prefetch(self, addr: int) -> Generator[Any, Any, None]:
        """Non-blocking software prefetch of ``addr``'s cache line."""
        return self.mem.prefetch(self.core, addr)

    def spin_until(self, addr: int, pred: Callable[[int], bool]) -> Generator[Any, Any, int]:
        return self.mem.spin_until(self.core, addr, pred)

    # -- hardware message passing -------------------------------------------
    def send(self, dst_tid: int, words: Sequence[int],
             timeout: Optional[int] = None) -> Generator[Any, Any, None]:
        return (self.udn or self._no_udn()).send(self.core, dst_tid, words, timeout)

    def receive(self, k: int = 1,
                timeout: Optional[int] = None) -> Generator[Any, Any, List[int]]:
        return (self.udn or self._no_udn()).receive(self.core, self.tid, k, timeout)

    def is_queue_empty(self) -> Generator[Any, Any, bool]:
        return (self.udn or self._no_udn()).is_queue_empty(self.core, self.tid)

    def _no_udn(self) -> NoReturn:
        raise RuntimeError(
            f"machine profile {self.machine.cfg.name!r} has no hardware message passing")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ThreadCtx(tid={self.tid}, core={self.core.cid})"
