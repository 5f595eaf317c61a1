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
subsystem (the Figure 13 harness) under the FINAL policy, once per
endurance point, with every other fault knob held fixed.  Faults are
drawn from a seeded, site-keyed hash, so the whole sweep is
reproducible bit-for-bit — serially, across repeats, and under the
parallel runner.
"""

from __future__ import annotations

import dataclasses
import typing

from repro.accel.isa import LoadOp, StoreOp
from repro.controller import PramSubsystem, SchedulerPolicy
from repro.experiments.runner import ExperimentConfig, format_table
from repro.faults.plan import FaultConfig
from repro.service.summary import outcome_summary
from repro.sim import Simulator
from repro.systems.base import input_pattern
from repro.workloads.trace import BLOCK_BYTES, TraceBundle

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
    address, size = bundle.input_region
    subsystem.preload(address, input_pattern(address, size))
    total_bytes = 0

    def agent_stream(trace) -> typing.Generator:
        nonlocal total_bytes
        seen_blocks: typing.Set[int] = set()
        for op in trace:
            if isinstance(op, LoadOp):
                block = op.address // BLOCK_BYTES
                if block in seen_blocks:
                    continue  # cache hit: no memory request
                seen_blocks.add(block)
                yield from subsystem.read(block * BLOCK_BYTES, BLOCK_BYTES)
                total_bytes += BLOCK_BYTES
            elif isinstance(op, StoreOp):
                yield from subsystem.write(op.address, b"\x5A" * op.size)
                total_bytes += op.size

    def driver() -> typing.Generator:
        for round_traces in bundle.rounds:
            out_address, out_size = bundle.output_region
            subsystem.register_write_hint(out_address, out_size)
            yield from subsystem.drain_hints()
            yield sim.fork_join([agent_stream(trace)
                                 for trace in round_traces])

    done = sim.process(driver())
    sim.run()
    if not done.ok:
        raise typing.cast(BaseException, done.value)
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
