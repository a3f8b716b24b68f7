"""Data containers shared by every experiment module."""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.workload.metrics import RunResult

__all__ = ["Series", "FigureData", "cdf_points"]

#: RunResult fields excluded from determinism fingerprints: host-side
#: provenance varies run to run by construction, and the (late-added)
#: queue-depth series must not perturb the hashes of figures that
#: predate it -- its deterministic content is fingerprinted through the
#: ``ol.qdepth_*`` extras instead
_HOST_FIELDS = ("host_wall_seconds", "host_events_processed",
                "queue_depth_series")


def cdf_points(samples: List[int]) -> List[Tuple[int, float]]:
    """Empirical CDF of raw latency samples as (latency, fraction<=).

    The full-distribution view behind ``--obs latencies``: p50/p99 hide
    the straggler tail the paper's latency discussion is about.
    """
    xs = sorted(samples)
    n = len(xs)
    out: List[Tuple[int, float]] = []
    for i, x in enumerate(xs):
        if i + 1 == n or xs[i + 1] != x:
            out.append((x, (i + 1) / n))
    return out


@dataclass
class Series:
    """One labelled curve: x values with their full RunResults."""

    label: str
    points: List[Tuple[float, RunResult]] = field(default_factory=list)

    def add(self, x: float, result: RunResult) -> None:
        self.points.append((x, result))

    def xs(self) -> List[float]:
        return [x for x, _ in self.points]

    def ys(self, metric: Callable[[RunResult], float]) -> List[float]:
        return [metric(r) for _, r in self.points]

    def y_at(self, x: float, metric: Callable[[RunResult], float]) -> Optional[float]:
        for px, r in self.points:
            if px == x:
                return metric(r)
        return None

    def peak(self, metric: Callable[[RunResult], float]) -> float:
        return max(self.ys(metric)) if self.points else 0.0

    def latency_samples(self) -> List[int]:
        """All raw per-op latency samples across this curve's points."""
        out: List[int] = []
        for _x, r in self.points:
            if r.latency_samples:
                out.extend(r.latency_samples)
        return out


@dataclass
class FigureData:
    """A reproduced figure: id, axis labels, and its curves."""

    figure_id: str                #: e.g. "fig3a"
    title: str
    x_label: str
    y_label: str
    series: Dict[str, Series] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)

    def series_for(self, label: str) -> Series:
        s = self.series.get(label)
        if s is None:
            s = Series(label)
            self.series[label] = s
        return s

    def add_point(self, label: str, x: float, result: RunResult) -> None:
        self.series_for(label).add(x, result)

    def note(self, text: str) -> None:
        self.notes.append(text)

    def labels(self) -> List[str]:
        return list(self.series.keys())

    def fingerprint(self) -> str:
        """Deterministic digest of every simulated number in the figure.

        Two runs of the same experiment with the same seeds must produce
        the same fingerprint -- this is what the engine's determinism
        contract and the parallel sweep runner's ordered merge are held
        to (tests/test_parallel.py, tests/test_sim_engine.py).  Host-side
        provenance (wall time, event counts) is excluded: it measures
        the host, not the simulation.
        """
        doc = {
            "figure_id": self.figure_id,
            "series": {
                label: [
                    {"x": x, **{k: v for k, v in asdict(r).items()
                                if k not in _HOST_FIELDS}}
                    for x, r in s.points
                ]
                for label, s in self.series.items()
            },
        }
        blob = json.dumps(doc, sort_keys=True, default=float)
        return hashlib.sha256(blob.encode()).hexdigest()
