"""Shared experiment configuration, cells and the execution matrix.

The matrix is a list of cells (:func:`matrix_cells`) that
:func:`repro.experiments.parallel.run_cells` runs, and
:func:`matrix_of` is its ``matrix[workload][system]`` view.  Telemetry
is ambient: run the cells inside ``Telemetry().activate()`` — or pass
``--observe DIR`` to the CLI — and every simulator, channel, PE and
link built during the runs records into the active tracer/registry; no
extra plumbing here.
"""

from __future__ import annotations

import dataclasses
import typing

from repro.accel import AcceleratorConfig
from repro.systems import SystemConfig, build_system
from repro.systems.base import ExecutionResult
from repro.workloads import all_workloads, generate_traces, workload
from repro.workloads.trace import TraceBundle

if typing.TYPE_CHECKING:  # pragma: no cover - typing-only import
    from repro.faults.plan import FaultConfig
    from repro.service.config import ServiceConfig

#: The 15 evaluated workloads in the figures' plotting order.
EVAL_WORKLOADS: typing.Tuple[str, ...] = tuple(
    spec.name for spec in all_workloads())


@dataclasses.dataclass(frozen=True)
class ExperimentConfig:
    """Evaluation knobs shared by every experiment.

    The default scale (0.25 of the reference footprints) with shrunken
    caches keeps footprint >> cache — the regime the paper's >10x
    inflated volumes created — while keeping simulation minutes-scale.
    """

    scale: float = 0.25
    seed: int = 1
    agents: int = 7
    dram_fraction: float = 0.4
    l1_bytes: int = 2 * 1024
    l2_bytes: int = 16 * 1024
    workloads: typing.Tuple[str, ...] = EVAL_WORKLOADS
    #: Optional ``--faults`` plan spec (``key=value,...``); None runs
    #: fault-free.  Kept as the raw string so the config stays
    #: trivially hashable for the parallel runner's cache key.
    faults: typing.Optional[str] = None
    #: Optional ``--service`` plan spec (``key=value,...``); None lets
    #: the service experiments use their built-in default plan.  Kept
    #: as the raw string (like ``faults``) so the config stays
    #: trivially hashable — and, because the parallel runner keys its
    #: cache on ``dataclasses.asdict(config)``, two runs with
    #: different service plans (or seeds) can never replay each
    #: other's cached cells.
    service: typing.Optional[str] = None

    def system_config(self) -> SystemConfig:
        """SystemConfig this experiment runs under."""
        return SystemConfig(
            accelerator=AcceleratorConfig(l1_bytes=self.l1_bytes,
                                          l2_bytes=self.l2_bytes),
            dram_fraction=self.dram_fraction,
            faults=self.fault_config())

    def fault_config(self) -> typing.Optional["FaultConfig"]:
        """Parsed fault plan, or None when running fault-free."""
        if self.faults is None:
            return None
        from repro.faults.plan import FaultConfig
        return FaultConfig.parse(self.faults)

    def service_config(self) -> typing.Optional["ServiceConfig"]:
        """Parsed service plan, or None when no ``--service`` given."""
        if self.service is None:
            return None
        from repro.service.config import ServiceConfig
        return ServiceConfig.parse(self.service)

    def bundle(self, name: str,
               rounds: int | None = None) -> TraceBundle:
        """Deterministic trace bundle for one workload."""
        return generate_traces(workload(name), agents=self.agents,
                               scale=self.scale, seed=self.seed,
                               rounds=rounds)


#: Fast configuration for unit tests of the experiment modules.
QUICK = ExperimentConfig(scale=0.05, agents=3,
                         workloads=("gemver", "doitg"))


@dataclasses.dataclass(frozen=True)
class Cell:
    """One unit of simulation, ``function(config, *args)``, named ``key``
    (:func:`repro.experiments.parallel.run_cells` runs each key once).
    ``function`` is module-level, so a cell pickles for a worker."""

    key: str
    function: typing.Callable[..., typing.Any]
    args: typing.Tuple[typing.Any, ...] = ()


def run_system(config: ExperimentConfig, workload_name: str,
               system_name: str) -> ExecutionResult:
    """The ``matrix/<workload>/<system>`` cell: one system, one workload."""
    return build_system(system_name, config.system_config()).run(
        config.bundle(workload_name))


def matrix_cells(workloads: typing.Sequence[str],
                 systems: typing.Sequence[str]) -> typing.List[Cell]:
    """The (workload, system) cells, workload-major."""
    return [Cell(f"matrix/{workload_name}/{system_name}", run_system,
                 (workload_name, system_name))
            for workload_name in workloads for system_name in systems]


def matrix_of(results: typing.Mapping[str, typing.Any],
              workloads: typing.Sequence[str],
              systems: typing.Sequence[str]
              ) -> typing.Dict[str, typing.Dict[str, ExecutionResult]]:
    """``matrix[workload][system]`` view of matrix cell results."""
    return {workload_name: {
        system_name: results[f"matrix/{workload_name}/{system_name}"]
        for system_name in systems} for workload_name in workloads}


def format_table(headers: typing.Sequence[str],
                 rows: typing.Sequence[typing.Sequence[object]]) -> str:
    """Render an aligned text table."""
    table = [list(map(_cell, headers))] + [
        list(map(_cell, row)) for row in rows
    ]
    widths = [max(len(row[col]) for row in table)
              for col in range(len(headers))]
    lines = []
    for index, row in enumerate(table):
        lines.append("  ".join(cell.ljust(width)
                               for cell, width in zip(row, widths)).rstrip())
        if index == 0:
            lines.append("  ".join("-" * width for width in widths))
    return "\n".join(lines)


def _cell(value: object) -> str:
    if isinstance(value, float):
        return f"{value:.3g}"
    return str(value)


def geometric_mean(values: typing.Sequence[float],
                   key: str = "") -> float:
    """Geometric mean (the figures' "on average" aggregations).

    ``key`` names the matrix row/column being aggregated so an empty
    cell list fails with the offending key, not a bare message.
    """
    if not values:
        raise ValueError(
            f"geometric mean of an empty cell list"
            f"{f' for matrix key {key!r}' if key else ''}")
    if any(value <= 0 for value in values):
        raise ValueError("geometric mean requires positive values")
    product = 1.0
    for value in values:
        product *= value
    return product ** (1.0 / len(values))
