"""Figure 17: energy decomposition of every system.

Headline claims: DRAM-less consumes ~19% of the advanced accelerated
systems' total energy and ~76% less than PAGE-buffer; Hetero spends
most of its energy moving data through the host storage stack.
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
from repro.systems import SYSTEM_NAMES

CATEGORIES = ("host", "host_dram", "pcie", "dram", "storage", "pram",
              "controller", "pe_compute", "pe_idle")


def cells(config: ExperimentConfig,
          systems: typing.Sequence[str] = SYSTEM_NAMES) -> typing.List[Cell]:
    """The system-matrix cells the figure reads."""
    return matrix_cells(config.workloads, systems)


def view(config: ExperimentConfig, results: typing.Mapping[str, typing.Any],
         systems: typing.Sequence[str] = SYSTEM_NAMES) -> typing.Dict:
    """Returns per-system energy (mJ) and category decompositions."""
    matrix = matrix_of(results, config.workloads, systems)
    totals: typing.Dict[str, typing.List[float]] = {
        name: [] for name in systems}
    categories: typing.Dict[str, typing.Dict[str, float]] = {
        name: {category: 0.0 for category in CATEGORIES}
        for name in systems
    }
    rows = []
    for workload_name, runs in matrix.items():
        row = {"workload": workload_name}
        for name in systems:
            energy = runs[name].energy
            row[name] = energy.total_mj
            totals[name].append(energy.total_mj)
            for category, nanojoules in energy.by_category().items():
                if category in categories[name]:
                    categories[name][category] += nanojoules / 1e6
        rows.append(row)
    mean_mj = {name: geometric_mean(values, key=name)
               for name, values in totals.items()}
    result = {
        "systems": list(systems),
        "rows": rows,
        "mean_mj": mean_mj,
        "category_mj": categories,
    }
    if "DRAM-less" in mean_mj and "Heterodirect" in mean_mj:
        result["dramless_fraction_of_heterodirect"] = (
            mean_mj["DRAM-less"] / mean_mj["Heterodirect"])
    if "DRAM-less" in mean_mj and "PAGE-buffer" in mean_mj:
        result["dramless_fraction_of_pagebuffer"] = (
            mean_mj["DRAM-less"] / mean_mj["PAGE-buffer"])
    return result


def run(config: ExperimentConfig = ExperimentConfig(),
        systems: typing.Sequence[str] = SYSTEM_NAMES) -> typing.Dict:
    """:func:`view` over the figure's cells, run in-process."""
    return view(config, parallel.cell_results(cells(config, systems),
                                              config), systems)


def report(result: typing.Dict) -> str:
    """Text rendering of the figure's data."""
    systems = result["systems"]
    table = format_table(
        ["workload"] + list(systems),
        [[row["workload"]] + [row[name] for name in systems]
         for row in result["rows"]]
        + [["geomean"] + [result["mean_mj"][name] for name in systems]])
    decomposition = format_table(
        ["system"] + list(CATEGORIES),
        [[name] + [result["category_mj"][name][c] for c in CATEGORIES]
         for name in systems])
    parts = []
    if "dramless_fraction_of_heterodirect" in result:
        parts.append(
            f"DRAM-less energy vs Heterodirect: "
            f"{result['dramless_fraction_of_heterodirect']:.0%} "
            "(paper: ~19%)")
    if "dramless_fraction_of_pagebuffer" in result:
        parts.append(
            f"DRAM-less energy vs PAGE-buffer: "
            f"{result['dramless_fraction_of_pagebuffer']:.0%} "
            "(paper: ~24%, i.e. 76% less)")
    summary = "\n".join(parts)
    return (f"Figure 17: energy (mJ)\n{table}\n\n"
            f"Per-component totals (mJ, summed over workloads)\n"
            f"{decomposition}\n{summary}")
