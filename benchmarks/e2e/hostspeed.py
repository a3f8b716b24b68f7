"""How fast the host is running this process, sampled while it works.

The host this benchmark was written on is a VM shared with other
tenants.  Its speed drifts by up to 2x over minutes, with no steal time
visible in the guest and CPU time tracking wall time, so a slow spell
inflates every timing taken during it.  While :func:`probing` is active,
a ``SIGALRM`` handler runs every :data:`PROBE_EVERY_S` of wall time and
times a fixed piece of interpreter work: the simulator's own mix of
attribute updates on objects spread over a 2 MB working set, dict
lookups, generator resumes and heap pushes.  :func:`host_seconds` turns
an interval's wall time into the seconds it takes at reference speed.

A plain arithmetic loop tracked only about 80% of a slowdown: the
simulator slowed more than the loop did.  This mix tracked 92-96% of it
(README.md, "Host-speed correction").  The probe touches no simulator
state, and its working set is built when this module is imported,
before a child starts timing.
"""

from __future__ import annotations

import gc
import heapq
import signal
import statistics
import time
from contextlib import contextmanager
from typing import Iterator, List, Tuple

__all__ = ["PROBE_EVERY_S", "REF_PROBE_S", "host_seconds", "probing"]

#: wall-time period of the probe; one probe costs about 2% of it
PROBE_EVERY_S = 0.01
PROBE_STEPS = 200
#: objects in the probe's working set (a power of two)
PROBE_CELLS = 1 << 14
#: the probe's median duration on the unloaded host the benchmark was
#: written on (a 2-vCPU Intel Xeon VM, CPython 3.11.7)
REF_PROBE_S = 222e-6


class _Cell:
    __slots__ = ("key", "hits")

    def __init__(self, key: int) -> None:
        self.key = key
        self.hits = 0


def _ticker() -> Iterator[int]:
    n = 0
    while True:
        n += yield n


_cells = [_Cell(i) for i in range(PROBE_CELLS)]
_index = {i: i for i in range(PROBE_CELLS)}
_tickers = [_ticker() for _ in range(64)]
for _t in _tickers:
    next(_t)
_state = {"cursor": 0, "busy": False}
#: (start, seconds) of every probe taken in this process
_probes: List[Tuple[float, float]] = []


def _probe(signum, frame) -> None:
    # a tick that lands inside a probe (the host stalled it for a whole
    # period) is dropped: the handler would re-enter a running generator
    if _state["busy"]:
        return
    _state["busy"] = True
    # hold the collector off, so that no collection of the simulator's
    # garbage is timed as probe work
    gc_was_on = gc.isenabled()
    gc.disable()
    t = time.perf_counter()
    i = _state["cursor"]
    heap: List[Tuple[int, int]] = []
    for step in range(PROBE_STEPS):
        i = (i * 1103515245 + 12345) & (PROBE_CELLS - 1)
        cell = _cells[i]
        cell.hits += _index[i] & 7
        _tickers[step & 63].send(1)
        heapq.heappush(heap, (cell.key ^ step, step))
        if len(heap) > 32:
            heapq.heappop(heap)
    _probes.append((t, time.perf_counter() - t))
    _state["cursor"] = i
    if gc_was_on:
        gc.enable()
    _state["busy"] = False


@contextmanager
def probing() -> Iterator[None]:
    """Probe the host every :data:`PROBE_EVERY_S` while the block runs."""
    old = signal.signal(signal.SIGALRM, _probe)
    signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


def host_seconds(t0: float, t1: float) -> Tuple[float, float]:
    """Seconds the interval ``[t0, t1)`` takes at reference speed.

    That is its wall time less the probes in it, times the host's speed:
    the mean of ``REF_PROBE_S / probe`` over those probes.  Returns the
    seconds and the speed.  An interval no probe fell in (only a tiny
    test window) is taken at the speed of every probe so far, or at face
    value if there is none.
    """
    inside = [d for t, d in _probes if t0 <= t < t1]
    basis = inside or [d for _, d in _probes]
    speed = statistics.fmean(REF_PROBE_S / d for d in basis) if basis else 1.0
    return (t1 - t0 - sum(inside)) * speed, speed
