"""Figure 7: traditional firmware vs an oracle (hardware) controller.

The paper compares a PRAM accelerator whose requests are admitted by
conventional SSD firmware against an oracle environment managing PRAM
with no overhead: firmware degrades the system by up to 80% on
data-intensive workloads.
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
)
from repro.systems.base import ExecutionResult
from repro.systems.pram_accel import DramlessSystem


def run_firmware(config: ExperimentConfig,
                 workload_name: str) -> ExecutionResult:
    """The ``fig07/<workload>/firmware`` cell: a pessimistic firmware
    that admits requests *serially* (one stream), unlike the 3-core
    firmware of the DRAM-less (firmware) system baseline."""
    return DramlessSystem(
        config.system_config(), firmware=True, firmware_cores=1,
        firmware_instructions=5_000).run(config.bundle(workload_name))


def cells(config: ExperimentConfig) -> typing.List[Cell]:
    """Per workload, the oracle (the system matrix's DRAM-less cell)
    and the firmware run."""
    return [cell for name in config.workloads for cell in (
        *matrix_cells([name], ["DRAM-less"]),
        Cell(f"fig07/{name}/firmware", run_firmware, (name,)))]


def view(config: ExperimentConfig,
         results: typing.Mapping[str, typing.Any]) -> typing.Dict:
    """Returns per-workload firmware-induced degradation."""
    rows = []
    for name in config.workloads:
        oracle = results[f"matrix/{name}/DRAM-less"]
        firmware = results[f"fig07/{name}/firmware"]
        rows.append({
            "workload": name,
            "normalized_performance":
                firmware.bandwidth_mb_s / oracle.bandwidth_mb_s,
        })
    performance = [row["normalized_performance"] for row in rows]
    return {
        "rows": rows,
        "max_degradation": 1.0 - min(performance),
        "mean_degradation": 1.0 - geometric_mean(performance),
    }


def run(config: ExperimentConfig = ExperimentConfig()) -> typing.Dict:
    """:func:`view` over the figure's cells, run in-process."""
    return view(config, parallel.cell_results(cells(config), config))


def report(result: typing.Dict) -> str:
    """Text rendering of the figure's data."""
    table = format_table(
        ["workload", "firmware perf vs oracle"],
        [[row["workload"], row["normalized_performance"]]
         for row in result["rows"]])
    summary = (
        f"max degradation: {result['max_degradation']:.1%} "
        f"(paper: up to 80%)\n"
        f"mean degradation: {result['mean_degradation']:.1%}"
    )
    return f"Figure 7: firmware bottleneck\n{table}\n{summary}"
