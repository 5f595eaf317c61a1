"""Figure 1: performance/energy cost of data movement vs an ideal system.

The paper normalizes a conventional accelerated system (accelerator +
SSD over PCIe) against an idealized one with enough memory for all
data: performance degrades up to 74% and energy inflates ~9x.
"""

from __future__ import annotations

import typing

from repro.experiments import parallel
from repro.experiments.runner import (
    Cell,
    ExperimentConfig,
    format_table,
    geometric_mean,
    matrix_cells,
    matrix_of,
)

#: The idealized environment is "Ideal-resident": the same hardware
#: with enough accelerator memory for all data, staged once.
SYSTEMS = ("Ideal-resident", "Hetero")


def cells(config: ExperimentConfig) -> typing.List[Cell]:
    """The system-matrix cells the figure reads."""
    return matrix_cells(config.workloads, SYSTEMS)


def view(config: ExperimentConfig,
         results: typing.Mapping[str, typing.Any]) -> typing.Dict:
    """Returns per-workload normalized performance and energy ratios."""
    matrix = matrix_of(results, config.workloads, SYSTEMS)
    rows = []
    for name, runs in matrix.items():
        ideal = runs["Ideal-resident"]
        hetero = runs["Hetero"]
        rows.append({
            "workload": name,
            "normalized_performance":
                hetero.bandwidth_mb_s / ideal.bandwidth_mb_s,
            "energy_ratio": hetero.energy_mj / ideal.energy_mj,
        })
    perf = [row["normalized_performance"] for row in rows]
    energy = [row["energy_ratio"] for row in rows]
    return {
        "rows": rows,
        "max_degradation": 1.0 - min(perf),
        "mean_degradation": 1.0 - geometric_mean(perf),
        "mean_energy_ratio": geometric_mean(energy),
    }


def run(config: ExperimentConfig = ExperimentConfig()) -> typing.Dict:
    """:func:`view` over the figure's cells, run in-process."""
    return view(config, parallel.cell_results(cells(config), config))


def report(result: typing.Dict) -> str:
    """Text rendering of the figure's data."""
    table = format_table(
        ["workload", "perf vs ideal", "energy ratio"],
        [[row["workload"], row["normalized_performance"],
          row["energy_ratio"]] for row in result["rows"]])
    summary = (
        f"max degradation: {result['max_degradation']:.1%} "
        f"(paper: up to 74%)\n"
        f"mean energy ratio: {result['mean_energy_ratio']:.1f}x "
        f"(paper: ~9x)"
    )
    return f"Figure 1: motivation\n{table}\n{summary}"
