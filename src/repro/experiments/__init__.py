"""One module per figure of the paper's evaluation (Section 5).

========== =========================================================
module     reproduces
========== =========================================================
``fig3``   Fig 3a (counter throughput), 3b (latency), 3c (MAX_OPS)
``fig4``   Fig 4a (stall breakdown), 4b (combining rate), 4c (CS len)
``fig5``   Fig 5a (queues), 5b (stacks)
``discussion``  Section 5.5 (x86) and Section 6 (oversubscription,
           buffer backpressure) plus the NoC-contention ablation
========== =========================================================

Every experiment takes ``quick=True`` (seconds, used by tests and the
default benchmark run) or ``quick=False`` (the larger windows and denser
sweeps behind EXPERIMENTS.md) and returns
:class:`~repro.analysis.series.FigureData`.

``repro.experiments.registry`` maps experiment ids to callables, and
``python -m repro run`` runs any subset from the command line.
"""

from repro.experiments.registry import EXPERIMENTS, run_experiment

__all__ = ["EXPERIMENTS", "run_experiment"]
