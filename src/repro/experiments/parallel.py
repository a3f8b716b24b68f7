"""Parallel sweep runner: fan independent simulation points over processes.

Every figure in the paper is a sweep over independent (algorithm,
parameter) points; each point builds its own :class:`Machine` from its
own seed, so points share no state and can run anywhere.  This module
turns a list of such points into results, either serially (the default,
so CI baselines stay comparable) or across a
:class:`~concurrent.futures.ProcessPoolExecutor`.

Determinism: results are merged **in submission order**, never in
completion order, so a parallel sweep assembles the exact same
:class:`~repro.analysis.series.FigureData` -- same fingerprint -- as a
serial one (asserted by tests/test_parallel.py).  The simulation itself
is per-point deterministic regardless of host scheduling.

Job count resolution, most specific wins:

1. an explicit ``jobs=`` argument (``--jobs N`` on the command line),
2. the ``REPRO_JOBS`` environment variable,
3. serial (1).

A crashed worker (or a point that raises) surfaces as a
:class:`PointFailure` naming the exact point, instead of a hung or
half-merged sweep.  Under an observability session every point, in a
worker or inline, returns its machines' records with its result
(:func:`repro.obs.observe_point`), merged in submission order too.
"""

from __future__ import annotations

import os
import re
import sys
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from typing import Any, Callable, List, NamedTuple, Optional, Sequence

import repro.obs as obs_mod

__all__ = ["PointFailure", "SweepPoint", "point", "resolve_jobs", "run_sweep"]


class SweepPoint(NamedTuple):
    """One unit of sweep work: where it lands in the figure, and what to run.

    ``fn`` must be a module-level callable and ``args``/``kwargs``
    picklable, so the point can ship to a worker process.
    """

    label: str          #: series the result belongs to
    x: float            #: x coordinate within the series
    fn: Callable[..., Any]
    args: tuple
    kwargs: dict


def point(label: str, x: float, fn: Callable[..., Any],
          *args: Any, **kwargs: Any) -> SweepPoint:
    """Convenience constructor: ``point("HybComb", 30, run_bench, ...)``."""
    return SweepPoint(label, x, fn, args, kwargs)


class PointFailure(RuntimeError):
    """A sweep point failed (in-process or in a worker), by name.

    Carries enough to rerun the one point serially for debugging.
    """

    def __init__(self, sweep: str, label: str, x: float, cause: BaseException):
        super().__init__(
            f"sweep {sweep!r} point ({label!r}, x={x:g}) failed: "
            f"{type(cause).__name__}: {cause}")
        self.sweep = sweep
        self.label = label
        self.x = x
        self.cause = cause


def resolve_jobs(jobs: Optional[int] = None) -> int:
    """Resolve the worker count: explicit arg > ``REPRO_JOBS`` > serial."""
    if jobs is not None:
        return max(1, int(jobs))
    env = os.environ.get("REPRO_JOBS", "").strip()
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            raise ValueError(f"REPRO_JOBS must be an integer, got {env!r}")
    return 1


def _progress(name: str, done: int, total: int, jobs: int) -> None:
    end = "\n" if done == total else "\r"
    sys.stderr.write(f"[{name}: {done}/{total} points, jobs={jobs}]{end}")
    sys.stderr.flush()


def run_sweep(points: Sequence[SweepPoint], *, jobs: Optional[int] = None,
              name: str = "sweep") -> List[Any]:
    """Run every point and return results in submission order.

    Serial (``jobs == 1``) execution calls each point inline, exactly as
    the pre-parallel experiment code did; with ``jobs > 1`` the points
    fan out over a process pool.  Either way the returned list is
    ordered like ``points``, so callers can zip them back together.
    """
    pts = list(points)
    n = min(resolve_jobs(jobs), len(pts))
    session = obs_mod.active_session()
    calls = [(p.fn, p.args, p.kwargs) for p in pts]
    if session is not None:
        # each point's incident bundles are named by sweep and index
        tag = re.sub(r"[^A-Za-z0-9]+", "-", name)
        calls = [(obs_mod.observe_point,
                  (f"{tag}-p{i:03d}-", session.options) + call, {})
                 for i, call in enumerate(calls)]
    show = len(pts) > 1
    results = []
    with ProcessPoolExecutor(max_workers=n) if n > 1 else nullcontext() as ex:
        futures = [ex.submit(fn, *args, **kwargs)
                   for fn, args, kwargs in calls] if ex else None
        # collect in submission order: the merge is deterministic even
        # though completion order is not
        for i, (p, (fn, args, kwargs)) in enumerate(zip(pts, calls)):
            if show:
                _progress(name, i, len(pts), n)
            try:
                out = futures[i].result() if futures else fn(*args, **kwargs)
            except Exception as exc:
                # includes BrokenProcessPool: a worker that died (OOM,
                # signal) fails the sweep with the point's name attached
                for f in futures or ():
                    f.cancel()
                raise PointFailure(name, p.label, p.x, exc) from exc
            if session is not None:
                out, records = out
                session.extend(records)
            results.append(out)
        if show:
            _progress(name, len(pts), len(pts), n)
    return results
