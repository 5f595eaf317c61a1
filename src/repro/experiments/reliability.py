"""Reliability: achieved bandwidth and error rate vs device wear.

The DRAM-less stack keeps working as its 3x-nm PRAM wears out: failed
SET passes are verified and retried (selective-erasing's asymmetry
applied to recovery), single-bit read upsets are corrected by SEC-DED
on the datapath, and rows that exhaust their retries are retired onto
spare rows.  This experiment sweeps the endurance budget — from
effectively-infinite down to a few writes per word — and reports what
that resilience machinery costs and where it stops being enough:
achieved subsystem bandwidth, retry/retirement activity, and the
unrecoverable-request rate.

The sweep replays one workload's block request stream against the
subsystem (the Figure 13 harness, :func:`~repro.experiments.
fig13_schedulers.replay_rounds`) under the FINAL policy, once per
endurance point, with every other fault knob held fixed.  Faults are
drawn from a seeded, site-keyed hash, so the whole sweep is
reproducible bit-for-bit — serially, across repeats, and under the
parallel runner.
"""

from __future__ import annotations

import dataclasses
import typing

from repro.controller import PramSubsystem, SchedulerPolicy
from repro.experiments.fig13_schedulers import replay_rounds
from repro.experiments.runner import ExperimentConfig, format_table
from repro.faults.plan import FaultConfig
from repro.service.summary import outcome_summary
from repro.sim import Simulator
from repro.telemetry.tracer import current_tracer
from repro.workloads.trace import TraceBundle

#: Endurance budgets swept, most durable first.  None = wear-free
#: (only the baseline transient fault rates apply).
ENDURANCE_SWEEP: typing.Tuple[typing.Optional[int], ...] = (None, 64, 16, 4)


def base_plan(config: ExperimentConfig) -> FaultConfig:
    """The fault plan whose endurance budget the sweep varies.

    ``--faults`` overrides every knob except the swept budget; without
    it a representative default exercises all fault categories.
    """
    plan = config.fault_config()
    if plan is None:
        plan = FaultConfig(
            seed=config.seed,
            read_flip_probability=5e-4,
            read_double_flip_probability=0.1,
            program_fail_probability=0.01,
            wear_fail_factor=0.5,
            max_program_retries=3,
            retry_backoff_ns=200.0,
            spare_rows_per_partition=4,
        )
    return plan


def replay(bundle: TraceBundle,
           faults: typing.Optional[FaultConfig]) -> typing.Dict[str, float]:
    """Replay ``bundle``'s request stream under one fault plan."""
    sim = Simulator()
    subsystem = PramSubsystem(sim, policy=SchedulerPolicy.FINAL,
                              faults=faults)
    total_bytes = replay_rounds(subsystem, bundle)
    counts = subsystem.fault_counts()
    completed = max(1.0, float(subsystem.requests_completed))
    max_wear = max(
        module.cell_tracker(partition).max_writes()
        for channel in subsystem.modules for module in channel
        for partition in range(module.geometry.partitions_per_bank))
    failed = counts.get("requests_failed", 0.0)
    degraded = counts.get("requests_degraded", 0.0)
    corrected = counts.get("requests_corrected", 0.0)
    return {
        "bandwidth_mb_s": total_bytes / sim.now * 1e3,
        "requests": float(subsystem.requests_completed),
        "retries": counts.get("retry_attempts", 0.0),
        "rows_retired": counts.get("rows_retired", 0.0),
        "ecc_corrected": counts.get("ecc_corrected_bits", 0.0),
        "ecc_uncorrectable": counts.get("ecc_uncorrectable", 0.0),
        "corrected": corrected,
        "degraded": degraded,
        "failed": failed,
        "unrecoverable_rate": (failed + degraded) / completed,
        "max_wear": float(max_wear),
    }


def run(config: ExperimentConfig = ExperimentConfig()) -> typing.Dict:
    """Sweep the endurance budget on the first configured workload."""
    name = config.workloads[0]
    bundle = config.bundle(name)
    plan = base_plan(config)
    rows = []
    for budget in ENDURANCE_SWEEP:
        swept = dataclasses.replace(plan, endurance_budget=budget)
        # One scope per simulated run: every run restarts at t = 0 on
        # the same channels, and traces must not mix them.
        label = "inf" if budget is None else budget
        with current_tracer().scope(f"{name}:endurance={label}"):
            stats = replay(bundle, swept)
        rows.append({"endurance": budget, **stats})
    return {"workload": name, "seed": plan.seed, "rows": rows}


def report(result: typing.Dict) -> str:
    """Text rendering of the sweep."""
    headers = ["endurance", "MB/s", "retries", "rows retired",
               "ecc corrected", "ecc uncorrectable", "unrecoverable",
               "max wear"]
    table = format_table(headers, [
        ["inf" if row["endurance"] is None else row["endurance"],
         row["bandwidth_mb_s"], int(row["retries"]),
         int(row["rows_retired"]), int(row["ecc_corrected"]),
         int(row["ecc_uncorrectable"]),
         f"{row['unrecoverable_rate']:.2%}", int(row["max_wear"])]
        for row in result["rows"]
    ])
    baseline = result["rows"][0]["bandwidth_mb_s"]
    worst = result["rows"][-1]
    slowdown = (1.0 - worst["bandwidth_mb_s"] / baseline
                if baseline > 0 else 0.0)
    outcomes = outcome_summary({
        "corrected": worst["corrected"],
        "degraded": worst["degraded"],
        "failed": worst["failed"],
    })
    summary = (
        f"workload: {result['workload']}, fault seed: {result['seed']}\n"
        f"bandwidth lost at endurance="
        f"{worst['endurance']}: {slowdown:.1%}; unrecoverable requests: "
        f"{worst['unrecoverable_rate']:.2%}\n"
        f"outcomes at endurance={worst['endurance']}: {outcomes}"
    )
    return f"Reliability: endurance sweep\n{table}\n{summary}"
