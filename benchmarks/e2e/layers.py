"""Fold a cProfile run into per-layer host time.

Each profiled function's self time (``tottime``) and call count are
charged to the layer that owns its source file: the ``src/repro``
package it lives in (``sim`` covers the engine and ``_engine_core``),
``workload`` for this benchmark's own op closures, and ``py`` for the
standard library, numpy and builtins.  Layers are measured from outside
the program; spans inside ``src/`` are a later change.
"""

from __future__ import annotations

from typing import Dict, Mapping, Tuple

from benchmarks.e2e.spec import LAYERS

__all__ = ["fold_profile", "layer_of"]

_REPRO_LAYERS = frozenset(LAYERS) - {"py"}


def layer_of(filename: str) -> str:
    """The layer a profiled source file belongs to."""
    parts = filename.replace("\\", "/").split("/")
    for i in range(len(parts) - 2, -1, -1):
        if parts[i] == "repro" and parts[i + 1] in _REPRO_LAYERS:
            return parts[i + 1]
        if parts[i] == "e2e" and i > 0 and parts[i - 1] == "benchmarks":
            return "workload"
    return "py"


def fold_profile(stats: Mapping[Tuple[str, int, str], tuple],
                 ops: int) -> Dict[str, float]:
    """``layer.<L>.share`` / ``.us_per_op`` / ``.calls_per_op`` per layer.

    ``stats`` is ``pstats.Stats(profile).stats``: (file, line, function)
    -> (primitive calls, calls, tottime, cumtime, callers).  Shares are
    of the total self time, so they sum to 1.
    """
    tt = dict.fromkeys(LAYERS, 0.0)
    calls = dict.fromkeys(LAYERS, 0)
    for (filename, _line, _func), (_cc, nc, tottime, _ct, _callers) \
            in stats.items():
        layer = layer_of(filename)
        tt[layer] += tottime
        calls[layer] += nc
    total = sum(tt.values()) or 1.0
    per = max(ops, 1)
    out: Dict[str, float] = {}
    for layer in LAYERS:
        out[f"layer.{layer}.share"] = tt[layer] / total
        out[f"layer.{layer}.us_per_op"] = tt[layer] * 1e6 / per
        out[f"layer.{layer}.calls_per_op"] = calls[layer] / per
    return out
