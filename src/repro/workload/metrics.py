"""The measurement record produced by every benchmark run."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

__all__ = ["RunResult"]


@dataclass
class RunResult:
    """Everything a figure needs from one (approach, thread-count) run.

    All cycle quantities are deltas over the measurement window only.
    """

    name: str                     #: approach / implementation label
    num_threads: int              #: application threads (paper's x-axes)
    window_cycles: int            #: measurement window length
    ops: int                      #: operations completed in the window
    clock_mhz: int                #: for Mops/s conversion

    #: mean request latency in cycles (Figure 3b)
    mean_latency_cycles: float = 0.0
    p50_latency_cycles: float = 0.0
    p95_latency_cycles: float = 0.0
    p99_latency_cycles: float = 0.0

    #: ops per thread in the window (fairness, Section 5.3)
    per_thread_ops: List[int] = field(default_factory=list)

    #: servicing-thread cycle breakdown per op (Figure 4a)
    service_cycles_per_op: float = 0.0
    service_stall_per_op: float = 0.0

    #: mean ops per combining session in the window (Figure 4b)
    combining_rate: Optional[float] = None

    #: atomic-instruction rates per op across application threads
    cas_per_op: float = 0.0
    cas_failures_per_op: float = 0.0
    atomics_per_op: float = 0.0

    #: free-form extras (e.g. EMPTY-dequeue fraction)
    extra: Dict[str, float] = field(default_factory=dict)

    #: raw per-op latency samples from the measurement window, in issue
    #: order (full-CDF analysis / ``--obs latencies``); None when the run
    #: predates sampling
    latency_samples: Optional[List[int]] = None

    #: recovery metrics (fault-injection runs; see repro.faults)
    time_to_recovery_cycles: Optional[float] = None
    ops_retried: int = 0
    duplicates_suppressed: int = 0
    failovers: int = 0
    takeovers: int = 0

    #: (cycle, depth) samples of the admission-queue depth over the
    #: measurement window (open-loop runs only; see
    #: :mod:`repro.workload.openloop`).  Excluded from determinism
    #: fingerprints *as a field* so pre-existing closed-loop figures
    #: hash identically; the depths themselves are deterministic and
    #: surface in the ``ol.qdepth_*`` extras, which are fingerprinted.
    queue_depth_series: Optional[List[List[int]]] = None

    #: host-side cost of producing this point (wall-clock seconds and
    #: simulator events over the whole run, warm-up included).  Pure
    #: provenance for the host-perf trend in BENCH_*.json -- simulated
    #: results never depend on these, and they are excluded from
    #: determinism fingerprints.
    host_wall_seconds: float = 0.0
    host_events_processed: int = 0

    @property
    def host_events_per_sec(self) -> float:
        """Simulator events per host second (engine speed, not a result)."""
        if self.host_wall_seconds <= 0:
            return 0.0
        return self.host_events_processed / self.host_wall_seconds

    # -- open-loop / overload metrics (see repro.workload.openloop) -------
    # These ride in ``extra`` under "ol.*" keys rather than as dataclass
    # fields so closed-loop figures that never set them keep bit-identical
    # determinism fingerprints.

    @property
    def p999_latency_cycles(self) -> float:
        """p99.9 sojourn latency -- the overload tail p99 smooths over."""
        val = self.extra.get("ol.p999_latency")
        if val is not None:
            return val
        if self.latency_samples:
            import numpy as np
            return float(np.percentile(np.asarray(self.latency_samples), 99.9))
        return 0.0

    @property
    def offered_mops(self) -> float:
        """Open-loop offered load (arrivals/s), 0.0 for closed-loop runs."""
        return self.extra.get("ol.offered_mops", 0.0)

    @property
    def goodput_mops(self) -> float:
        """Admitted-and-completed ops/s.  Equals throughput for
        closed-loop runs (every op issued is completed)."""
        return self.extra.get("ol.goodput_mops", self.throughput_mops)

    @property
    def shed_ops(self) -> int:
        """Arrivals rejected by the admission policy (never executed)."""
        return int(self.extra.get("ol.shed", 0))

    @property
    def dispatch_timeouts(self) -> int:
        """Timed dispatches that expired pre-commit (retryable)."""
        return int(self.extra.get("ol.timeouts", 0))

    @property
    def retries(self) -> int:
        """Admission retries performed after backoff."""
        return int(self.extra.get("ol.retries", 0))

    @property
    def time_in_slo(self) -> Optional[float]:
        """Fraction of the window inside the latency SLO, or None when
        the run had no ``slo_cycles`` target."""
        return self.extra.get("ol.time_in_slo")

    @property
    def throughput_mops(self) -> float:
        """Throughput in Mops/s at the machine clock (the paper's y-axis)."""
        if self.window_cycles <= 0:
            return 0.0
        return self.ops * self.clock_mhz / self.window_cycles

    @property
    def cycles_per_op(self) -> float:
        """Average machine cycles per completed operation (1/throughput).

        At saturation this equals the servicing thread's per-op time --
        the y-axis of Figure 4c.
        """
        if self.ops <= 0:
            return float("inf")
        return self.window_cycles / self.ops

    @property
    def fairness_ratio(self) -> float:
        """max/min ops across threads; 1 denotes ideal fairness (§5.3)."""
        if not self.per_thread_ops:
            return 1.0
        lo = min(self.per_thread_ops)
        if lo == 0:
            return float("inf")  # a thread starved entirely
        return max(self.per_thread_ops) / lo

    def summary(self) -> str:
        parts = [
            f"{self.name}: T={self.num_threads}",
            f"tput={self.throughput_mops:.1f} Mops/s",
            f"lat={self.mean_latency_cycles:.0f} cyc",
        ]
        if self.combining_rate is not None:
            parts.append(f"comb={self.combining_rate:.1f}")
        if self.service_cycles_per_op:
            parts.append(
                f"svc={self.service_cycles_per_op:.1f} cyc/op"
                f" ({self.service_stall_per_op:.1f} stalled)"
            )
        if "ol.offered_mops" in self.extra:
            parts.append(f"offered={self.offered_mops:.1f} Mops/s")
            parts.append(f"goodput={self.goodput_mops:.1f} Mops/s")
            if self.shed_ops:
                parts.append(f"shed={self.shed_ops}")
            if self.dispatch_timeouts:
                parts.append(f"timeouts={self.dispatch_timeouts}")
            if self.time_in_slo is not None:
                parts.append(f"slo={self.time_in_slo:.0%}")
        if self.time_to_recovery_cycles is not None:
            parts.append(f"ttr={self.time_to_recovery_cycles:.0f} cyc")
        if self.ops_retried:
            parts.append(
                f"retried={self.ops_retried}"
                f" deduped={self.duplicates_suppressed}"
                f" failovers={self.failovers}"
            )
        return "  ".join(parts)
