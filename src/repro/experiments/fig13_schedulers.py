"""Figure 13: bare-metal vs interleaving vs selective-erasing vs final.

Figure 13 is a *memory-subsystem* study: it compares the data
processing bandwidth of the PRAM subsystem under a noop scheduler
(Bare-metal) against the two proposed optimizations and their
combination (Final), driven by the Polybench request streams.  We
extract each workload's block-level memory request stream from its
traces (7 concurrent agents, as many outstanding requests) and replay
it directly against the subsystem — no compute masking.
"""

from __future__ import annotations

import dataclasses
import typing

from repro.accel.isa import LoadOp, StoreOp
from repro.controller import PramSubsystem, SchedulerPolicy
from repro.experiments import parallel
from repro.experiments.runner import (
    Cell,
    ExperimentConfig,
    format_table,
    geometric_mean,
)
from repro.sim import LatencySketch, Simulator
from repro.systems.base import input_pattern
from repro.telemetry.tracer import current_tracer
from repro.workloads import workload
from repro.workloads.trace import BLOCK_BYTES, TraceBundle

POLICIES = (SchedulerPolicy.BARE_METAL, SchedulerPolicy.INTERLEAVING,
            SchedulerPolicy.SELECTIVE_ERASE, SchedulerPolicy.FINAL)


@dataclasses.dataclass
class SubsystemRun:
    """One policy replay: bandwidth plus the request-latency sketch."""

    mbps: float
    sketch: LatencySketch


def replay_rounds(subsystem: PramSubsystem, bundle: TraceBundle) -> int:
    """Replay ``bundle`` against ``subsystem`` until its simulator
    drains; returns the bytes the agents moved.

    The input region is preloaded; then, per round, the output region's
    pre-RESET hints are drained and the round's agent streams fan out.
    Fig. 13 and the endurance sweep (:mod:`repro.experiments.
    reliability`) both replay through here.
    """
    sim = subsystem.sim
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
            # Section V-A: the pre-resets happen "while the server
            # loads the target kernel" — before the round's request
            # stream.  The drain runs module-parallel and its time
            # counts against the policy.
            out_address, out_size = bundle.output_region
            subsystem.register_write_hint(out_address, out_size)
            yield from subsystem.drain_hints()
            yield sim.fork_join([agent_stream(trace)
                                 for trace in round_traces])

    done = sim.process(driver())
    sim.run()
    if not done.ok:
        raise typing.cast(BaseException, done.value)
    return total_bytes


def subsystem_run(bundle: TraceBundle,
                  policy: SchedulerPolicy) -> SubsystemRun:
    """Replay ``bundle``'s request streams under ``policy``."""
    sim = Simulator()
    subsystem = PramSubsystem(sim, policy=policy)
    total_bytes = replay_rounds(subsystem, bundle)
    return SubsystemRun(
        mbps=total_bytes / sim.now * 1e3,  # bytes/ns -> MB/s
        sketch=subsystem.merged_latency_sketch(),
    )


def run_replay(config: ExperimentConfig, workload_name: str,
               policy: SchedulerPolicy) -> SubsystemRun:
    """The ``fig13/<workload>/<policy>`` cell, in a scope of its own:
    request ids restart per cell and attribution keys on (scope, req)."""
    with current_tracer().scope(f"{workload_name}:{policy.value}"):
        return subsystem_run(config.bundle(workload_name), policy)


def cells(config: ExperimentConfig) -> typing.List[Cell]:
    """One replay per (workload, policy), workload-major."""
    return [Cell(f"fig13/{name}/{policy.value}", run_replay, (name, policy))
            for name in config.workloads for policy in POLICIES]


def view(config: ExperimentConfig,
         results: typing.Mapping[str, typing.Any]) -> typing.Dict:
    """Returns normalized bandwidth per (workload, policy)."""
    rows = []
    # One sketch per policy, merged across workloads — the tail-latency
    # view behind the bandwidth bars (merge order is irrelevant: the
    # bucket-wise fold is associative and commutative).
    merged = {policy.value: LatencySketch(f"fig13.{policy.value}")
              for policy in POLICIES}
    for name in config.workloads:
        runs = {policy.value: results[f"fig13/{name}/{policy.value}"]
                for policy in POLICIES}
        for policy in POLICIES:
            merged[policy.value].merge(runs[policy.value].sketch)
        baseline = runs[SchedulerPolicy.BARE_METAL.value].mbps
        rows.append({
            "workload": name,
            "write_ratio": workload(name).write_ratio,
            **{policy.value: runs[policy.value].mbps / baseline
               for policy in POLICIES},
        })
    final = merged[SchedulerPolicy.FINAL.value]
    return {
        "rows": rows,
        "mean_final_gain": geometric_mean(
            [row["final"] for row in rows], key="final") - 1.0,
        "mean_selective_gain": geometric_mean(
            [row["selective-erasing"] for row in rows],
            key="selective-erasing") - 1.0,
        "max_interleaving_gain": max(
            row["interleaving"] for row in rows) - 1.0,
        "latency_p50": final.percentile(0.50),
        "latency_p99": final.percentile(0.99),
        "latency_p999": final.percentile(0.999),
    }


def run(config: ExperimentConfig = ExperimentConfig()) -> typing.Dict:
    """:func:`view` over the figure's cells, run in-process."""
    return view(config, parallel.cell_results(cells(config), config))


def report(result: typing.Dict) -> str:
    """Text rendering of the figure's data."""
    headers = ["workload", "write ratio"] + [p.value for p in POLICIES]
    table = format_table(headers, [
        [row["workload"], row["write_ratio"]]
        + [row[p.value] for p in POLICIES]
        for row in result["rows"]
    ])
    summary = (
        f"max interleaving gain: {result['max_interleaving_gain']:.1%} "
        "(paper: up to 54%, trmm)\n"
        f"mean selective-erasing gain: "
        f"{result['mean_selective_gain']:.1%} (paper: ~57% on "
        "write-bound workloads)\n"
        f"mean final gain: {result['mean_final_gain']:.1%} "
        "(paper: 77% on average)\n"
        f"final-policy request latency: "
        f"p50 {result['latency_p50']:.1f} ns, "
        f"p99 {result['latency_p99']:.1f} ns, "
        f"p999 {result['latency_p999']:.1f} ns"
    )
    return f"Figure 13: subsystem schedulers\n{table}\n{summary}"
