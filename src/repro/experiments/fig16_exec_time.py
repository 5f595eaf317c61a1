"""Figure 16: execution-time decomposition of every system.

The paper splits each system's execution into data-movement and
computation components.  We report, per system, the mean fraction of
wall time in each category (data preparation, kernel offload,
computation, memory stalls, store stalls, output writeback).
"""

from __future__ import annotations

import typing

from repro.experiments import parallel
from repro.experiments.runner import (
    Cell,
    ExperimentConfig,
    format_table,
    matrix_cells,
    matrix_of,
)
from repro.systems import SYSTEM_NAMES

CATEGORIES = ("data_preparation", "kernel_offload", "computation",
              "memory_stall", "store_stall", "output_writeback")


def cells(config: ExperimentConfig,
          systems: typing.Sequence[str] = SYSTEM_NAMES) -> typing.List[Cell]:
    """The system-matrix cells the figure reads."""
    return matrix_cells(config.workloads, systems)


def view(config: ExperimentConfig, results: typing.Mapping[str, typing.Any],
         systems: typing.Sequence[str] = SYSTEM_NAMES) -> typing.Dict:
    """Returns mean per-category time fractions per system."""
    matrix = matrix_of(results, config.workloads, systems)
    fractions: typing.Dict[str, typing.Dict[str, float]] = {
        name: {category: 0.0 for category in CATEGORIES}
        for name in systems
    }
    per_workload = {}
    for workload_name, runs in matrix.items():
        per_workload[workload_name] = {}
        for name in systems:
            shares = runs[name].time_breakdown.fractions()
            per_workload[workload_name][name] = shares
            for category in CATEGORIES:
                fractions[name][category] += shares.get(category, 0.0)
    count = len(matrix)
    for name in systems:
        for category in CATEGORIES:
            fractions[name][category] /= count
    return {
        "systems": list(systems),
        "mean_fractions": fractions,
        "per_workload": per_workload,
    }


def run(config: ExperimentConfig = ExperimentConfig(),
        systems: typing.Sequence[str] = SYSTEM_NAMES) -> typing.Dict:
    """:func:`view` over the figure's cells, run in-process."""
    return view(config, parallel.cell_results(cells(config, systems),
                                              config), systems)


def report(result: typing.Dict) -> str:
    """Text rendering of the figure's data."""
    rows = []
    for name in result["systems"]:
        shares = result["mean_fractions"][name]
        rows.append([name] + [shares[c] for c in CATEGORIES])
    table = format_table(["system"] + list(CATEGORIES), rows)
    return f"Figure 16: execution-time decomposition (mean fractions)\n{table}"
