"""The benchmark's workloads: fixed cell lists built from one seed.

A *cell* is one call into a public entry point of the reproduction
(``fig13_schedulers.subsystem_run``, ``build_system(...).run`` or an
``EXPERIMENTS`` callable) that returns a JSON-able summary of its
simulated result.  :func:`build` makes every input from ``seed`` — the
trace bundles and configs are all the program under test receives.

The cell lists are cut, whole cells at a time, so that one repetition
of any workload takes 1–3 s on a 2-CPU host and a whole run
(set-up probes, timed pass, traced pass) stays under 20 s.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import typing

from bench import WORKLOADS
from repro.experiments import fig13_schedulers
from repro.experiments.cli import EXPERIMENTS
from repro.experiments.runner import QUICK, ExperimentConfig
from repro.systems import SYSTEM_NAMES, build_system
from repro.systems.base import ExecutionResult

#: Read-dominated kernels (write ratio <= 0.1) for the fig13 replay.
FIG13_READ_KERNELS = ("durbin", "trisolv")
#: The most write-bound kernel (write ratio 0.6) for the fig13 replay.
FIG13_WRITE_KERNELS = ("doitg",)
#: A read-bound and a write-bound kernel for the system runs (the
#: --quick pair; adi and jaco2D would more than double a repetition).
SYSTEM_KERNELS = ("gemver", "doitg")
#: Experiments suite-quick leaves out: fig16 and fig17 re-run fig15's
#: matrix, and the fig13 workloads already replay subsystem_run.
SUITE_SKIPPED = ("fig13", "fig16", "fig17")
#: The paper's own system, with and without the firmware controller.
PRAM_SYSTEMS = ("DRAM-less", "DRAM-less (firmware)")
#: Every other Table I system: no ChannelController runs in these.
BASELINE_SYSTEMS = tuple(name for name in SYSTEM_NAMES
                         if name not in PRAM_SYSTEMS)

Summary = typing.Any


@dataclasses.dataclass(frozen=True)
class Cell:
    """One timed call; ``run`` returns a JSON-able result summary."""

    name: str
    run: typing.Callable[[], Summary]


def build(workload: str, seed: int) -> typing.List[Cell]:
    """The cell list of ``workload`` with every input made from ``seed``."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; "
                         f"known: {', '.join(WORKLOADS)}")
    if workload == "suite-quick":
        quick = dataclasses.replace(QUICK, seed=seed)
        return [Cell(name, _experiment(function, quick))
                for name, (_, function) in EXPERIMENTS.items()
                if name not in SUITE_SKIPPED]
    config = ExperimentConfig(seed=seed)
    if workload.startswith("fig13-"):
        kernels = (FIG13_READ_KERNELS if workload == "fig13-read"
                   else FIG13_WRITE_KERNELS)
        cells = []
        for kernel in kernels:
            bundle = config.bundle(kernel)
            cells += [Cell(f"{kernel}/{policy.value}", _replay(bundle, policy))
                      for policy in fig13_schedulers.POLICIES]
        return cells
    systems = PRAM_SYSTEMS if workload == "system-pram" else BASELINE_SYSTEMS
    system_config = config.system_config()
    cells = []
    for kernel in SYSTEM_KERNELS:
        bundle = config.bundle(kernel)
        cells += [Cell(f"{kernel}/{system}",
                       _system(system, system_config, bundle))
                  for system in systems]
    return cells


def _replay(bundle, policy) -> typing.Callable[[], Summary]:
    def cell() -> Summary:
        result = fig13_schedulers.subsystem_run(bundle, policy)
        return {"mb_s": result.mbps, "latency": result.sketch.to_payload()}
    return cell


def _system(name, system_config, bundle) -> typing.Callable[[], Summary]:
    def cell() -> Summary:
        return summarize_execution(
            build_system(name, system_config).run(bundle))
    return cell


def _experiment(function, config) -> typing.Callable[[], Summary]:
    def cell() -> Summary:
        return {"report": function(config)}
    return cell


def summarize_execution(result: ExecutionResult) -> Summary:
    """The simulated outputs of one system run that the figures use."""
    stats = result.accel_stats
    return {
        "total_ns": result.total_ns,
        "phase_ns": result.phase_ns,
        "time_breakdown": result.time_breakdown.as_dict(),
        "energy_nj": result.energy.by_category(),
        "energy_mj": result.energy_mj,
        "bytes": result.bytes_processed,
        "instructions": stats.instructions,
        "compute_ns": stats.compute_ns,
        "stall_ns": stats.stall_ns,
        "store_stall_ns": stats.store_stall_ns,
        "l2_misses": stats.l2_misses,
    }


def canonical(summary: Summary) -> str:
    """Order-free exact text of a summary: sorted keys, tuples as
    lists, floats by their shortest round-trip repr."""
    return json.dumps(summary, sort_keys=True, separators=(",", ":"))


def fingerprint(results: typing.Mapping[str, str]) -> int:
    """48-bit SHA-256 prefix over ``cell name -> canonical(summary)``."""
    digest = hashlib.sha256(canonical(dict(results)).encode()).hexdigest()
    return int(digest[:12], 16)
