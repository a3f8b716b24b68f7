"""Declarative fault descriptions (what to break, when).

Each fault is an immutable dataclass; a :class:`FaultPlan` bundles a
tuple of them with a PRNG seed.  Plans carry no machine references --
they can be constructed in experiment configs, logged, and compared.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple, Union

__all__ = ["CrashThread", "FaultPlan", "PreemptThread", "SlowThread", "UdnJitter"]


@dataclass(frozen=True)
class CrashThread:
    """Fail-stop crash: kill every process of thread ``tid`` at ``at_cycle``.

    The killed generator is abandoned without unwinding (no ``finally``
    blocks run), modelling a core that simply stops executing.  Locks
    held, messages queued and shared-memory state are left exactly as
    they were -- recovering from that is the protocol's job.
    """

    tid: int
    at_cycle: int

    def __post_init__(self) -> None:
        if self.at_cycle < 0:
            raise ValueError("at_cycle must be >= 0")


@dataclass(frozen=True)
class PreemptThread:
    """Duty-cycle preemption: from ``start_cycle`` on, thread ``tid``
    repeatedly runs for ``run_cycles`` then loses the core for
    ``preempt_cycles`` (an OS time-slice pattern).  ``until_cycle``
    bounds the interference; ``None`` preempts for the whole run."""

    tid: int
    start_cycle: int
    run_cycles: int
    preempt_cycles: int
    until_cycle: Optional[int] = None

    def __post_init__(self) -> None:
        if self.run_cycles < 1 or self.preempt_cycles < 1:
            raise ValueError("run_cycles and preempt_cycles must be >= 1")
        if self.start_cycle < 0:
            raise ValueError("start_cycle must be >= 0")
        if self.until_cycle is not None and self.until_cycle <= self.start_cycle:
            raise ValueError("until_cycle must be > start_cycle")


@dataclass(frozen=True)
class SlowThread:
    """Core slowdown: between ``start_cycle`` and ``until_cycle``,
    thread ``tid`` advances only ``1/factor`` as fast -- modelled as a
    stall of ``(factor - 1) * quantum`` cycles injected every ``quantum``
    cycles of progress (DVFS throttling, SMT interference, ...)."""

    tid: int
    factor: float
    start_cycle: int = 0
    until_cycle: Optional[int] = None
    quantum: int = 200

    def __post_init__(self) -> None:
        if self.factor <= 1.0:
            raise ValueError("factor must be > 1 (1.0 is a healthy core)")
        if self.quantum < 1:
            raise ValueError("quantum must be >= 1")


@dataclass(frozen=True)
class UdnJitter:
    """Bounded random extra transit delay on every UDN message: uniform
    integer in ``[0, max_cycles]`` drawn from the plan's seeded PRNG."""

    max_cycles: int

    def __post_init__(self) -> None:
        if self.max_cycles < 1:
            raise ValueError("max_cycles must be >= 1")


Fault = Union[CrashThread, PreemptThread, SlowThread, UdnJitter]


@dataclass(frozen=True)
class FaultPlan:
    """A seeded, ordered collection of faults for one run."""

    seed: int = 0
    faults: Tuple[Fault, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        object.__setattr__(self, "faults", tuple(self.faults))

    @classmethod
    def none(cls) -> "FaultPlan":
        """The empty plan (installing it is a no-op)."""
        return cls()

    def __bool__(self) -> bool:
        return bool(self.faults)
