"""Experiment harness: one module per table/figure of Section VI.

Each experiment module exposes ``run(config) -> dict`` returning the
rows/series the paper reports, plus a ``report(result) -> str`` that
renders them as the text table the benchmarks print.  Figures that
share simulations also declare ``cells(config)`` and compute
``view(config, results)`` from them; :mod:`~repro.experiments.parallel`
runs each cell once.  The shared :mod:`~repro.experiments.runner`
holds the evaluation configuration and the execution matrix.
"""

from repro.experiments.runner import (
    EVAL_WORKLOADS,
    ExperimentConfig,
    format_table,
)

__all__ = [
    "EVAL_WORKLOADS",
    "ExperimentConfig",
    "format_table",
]
