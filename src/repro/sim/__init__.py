"""Discrete-event simulation engine.

This package provides the foundation everything else in :mod:`repro` is
built on: a deterministic event-driven simulator with generator-based
processes (:mod:`repro.sim.engine`) and the classic coordination
primitives built on top of it (:mod:`repro.sim.resources`).

The design follows the SimPy style -- simulated activities are Python
generators that ``yield`` *effects* -- but is implemented from scratch and
kept deliberately tiny so the hot path (the trampoline in
:class:`~repro.sim.engine.Simulator`) stays cheap: the only primitive
effects are an ``int`` (advance simulated time) and an
:class:`~repro.sim.engine.Event` (block until triggered).  Everything else
(resources, conditions, memory operations, message queues) is composed from
those two via ``yield from``.
"""

from repro.sim.engine import (
    DeadlockError,
    Event,
    Interrupt,
    Process,
    Simulator,
    WaitTimer,
)
from repro.sim.resources import Condition, Resource

__all__ = [
    "Condition",
    "DeadlockError",
    "Event",
    "Interrupt",
    "Process",
    "Resource",
    "Simulator",
    "WaitTimer",
]
