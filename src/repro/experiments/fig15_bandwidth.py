"""Figure 15: data-processing throughput of the ten systems vs Hetero.

The paper's headline comparison: every system's bandwidth normalized
to the Hetero baseline across the Polybench suite.  Key claims:
Heterodirect +25% over Hetero; DRAM-less +93%/+47% over
Hetero/Heterodirect; DRAM-less +25% over DRAM-less (firmware); ~64%
over PAGE-buffer's best scenarios.
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


def cells(config: ExperimentConfig,
          systems: typing.Sequence[str] = SYSTEM_NAMES) -> typing.List[Cell]:
    """The system-matrix cells the figure reads."""
    return matrix_cells(config.workloads, systems)


def view(config: ExperimentConfig, results: typing.Mapping[str, typing.Any],
         systems: typing.Sequence[str] = SYSTEM_NAMES) -> typing.Dict:
    """Returns the normalized-bandwidth matrix and headline means."""
    matrix = matrix_of(results, config.workloads, systems)
    rows = []
    for workload_name, runs in matrix.items():
        baseline = runs["Hetero"].bandwidth_mb_s
        rows.append({
            "workload": workload_name,
            **{name: runs[name].bandwidth_mb_s / baseline
               for name in systems},
        })
    means = {name: geometric_mean([row[name] for row in rows], key=name)
             for name in systems}
    return {
        "systems": list(systems),
        "rows": rows,
        "means": means,
        "dramless_vs_hetero": means["DRAM-less"] - 1.0,
        "dramless_vs_heterodirect":
            means["DRAM-less"] / means["Heterodirect"] - 1.0,
        "dramless_vs_firmware":
            means["DRAM-less"] / means["DRAM-less (firmware)"] - 1.0,
        "heterodirect_vs_hetero": means["Heterodirect"] - 1.0,
    }


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
        + [["geomean"] + [result["means"][name] for name in systems]])
    summary = (
        f"DRAM-less vs Hetero: +{result['dramless_vs_hetero']:.0%} "
        "(paper: +93%)\n"
        f"DRAM-less vs Heterodirect: "
        f"+{result['dramless_vs_heterodirect']:.0%} (paper: +47%)\n"
        f"DRAM-less vs DRAM-less (firmware): "
        f"+{result['dramless_vs_firmware']:.0%} (paper: +25%)\n"
        f"Heterodirect vs Hetero: "
        f"+{result['heterodirect_vs_hetero']:.0%} (paper: +25%)"
    )
    return f"Figure 15: normalized throughput\n{table}\n{summary}"
