"""Figures 18 and 19: total-IPC time series.

The paper plots the aggregate IPC of all agent PEs over time under a
read-intensive workload (gemver, Figure 18) and a write-intensive one
(doitg, Figure 19) for the integrated/paged/NOR/DRAM-less systems.
Page-granule systems show zero-IPC valleys while pages move; DRAM-less
sustains IPC throughout.

Each figure is a view of its workload's row of the system matrix, the
``matrix/<workload>/<system>`` cells Figs. 15-17 declare too.
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

#: The systems Figures 18/19 plot.
IPC_SYSTEMS = ("Integrated-SLC", "Integrated-MLC", "Integrated-TLC",
               "PAGE-buffer", "NOR-intf", "DRAM-less")


def cells(config: ExperimentConfig, workload_name: str,
          systems: typing.Sequence[str] = IPC_SYSTEMS) -> typing.List[Cell]:
    """The system-matrix cells one figure reads: ``workload_name`` on
    each of ``systems``."""
    return matrix_cells((workload_name,), systems)


def view(config: ExperimentConfig, results: typing.Mapping[str, typing.Any],
         workload_name: str, systems: typing.Sequence[str] = IPC_SYSTEMS,
         buckets: int = 40) -> typing.Dict:
    """Returns resampled aggregate-IPC series per system."""
    runs = matrix_of(results, (workload_name,), systems)[workload_name]
    series = {}
    means = {}
    stall_fraction = {}
    for name in systems:
        result = runs[name]
        ipc = result.aggregate_ipc
        end = max(result.total_ns, ipc.times[-1] if len(ipc) else 1.0)
        series[name] = ipc.resample(0.0, end, buckets)
        means[name] = ipc.time_weighted_mean(0.0, end)
        zero_time = sum(
            width for (_, value), width in zip(
                series[name], [end / buckets] * buckets)
            if value < 1e-9)
        stall_fraction[name] = zero_time / end
    return {
        "workload": workload_name,
        "systems": list(systems),
        "series": series,
        "mean_ipc": means,
        "stall_fraction": stall_fraction,
    }


def run(workload_name: str,
        config: ExperimentConfig = ExperimentConfig(),
        systems: typing.Sequence[str] = IPC_SYSTEMS,
        buckets: int = 40) -> typing.Dict:
    """:func:`view` over one figure's cells, run in-process."""
    return view(config, parallel.cell_results(
        cells(config, workload_name, systems), config),
        workload_name, systems, buckets)


def run_figure18(config: ExperimentConfig = ExperimentConfig()
                 ) -> typing.Dict:
    """Figure 18: the read-intensive (gemver) IPC series."""
    return run("gemver", config)


def run_figure19(config: ExperimentConfig = ExperimentConfig()
                 ) -> typing.Dict:
    """Figure 19: the write-intensive (doitg) IPC series."""
    return run("doitg", config)


def report(result: typing.Dict) -> str:
    """Text rendering: mean IPC, idle fractions, and the IPC curves."""
    from repro.experiments.plot import series_chart

    rows = [[name, result["mean_ipc"][name],
             result["stall_fraction"][name]]
            for name in result["systems"]]
    table = format_table(["system", "mean aggregate IPC",
                          "zero-IPC fraction"], rows)
    chart = series_chart(result["series"])
    return (f"Figures 18/19: total IPC under {result['workload']}\n"
            f"{table}\n\nIPC over (each system's own) run time:\n{chart}")
