"""Deterministic trace generation from workload specs.

Each workload is split into per-agent kernels (the paper's porting
strategy): agent *i* owns an equal slice of the input and output
footprints.  Within its slice, an agent streams input blocks (in
order, or shuffled for irregular kernels), computes on each, revisits
recent blocks per the reuse factor, and emits output blocks paced to
the workload's write ratio.

All randomness flows through one seeded ``random.Random``, so a
(spec, agents, scale, seed) tuple always produces identical traces.
"""

from __future__ import annotations

import dataclasses
import math
import random
import typing

from repro.accel.isa import ComputeOp, KernelOp, LoadOp, StoreOp
from repro.workloads.characteristics import WorkloadSpec

#: Block size traces operate at (the L2 request unit).
BLOCK_BYTES = 512

#: Operand size of a single load instruction (the PEs' .D width).
OPERAND_BYTES = 32

#: Default base address of the output region; far enough from the
#: input region for any scale used in the experiments.
OUTPUT_BASE = 64 * 1024 * 1024


@dataclasses.dataclass(frozen=True)
class TraceBundle:
    """Per-round, per-agent traces plus the regions they touch.

    ``rounds[r][a]`` is agent *a*'s trace for kernel round *r*.  Every
    round sweeps the full input and rewrites the output region — the
    iterative-solver shape of the suite (Jacobi/Seidel sweeps, LU
    elimination passes).
    """

    spec: WorkloadSpec
    rounds: typing.Tuple[
        typing.Tuple[typing.Tuple[KernelOp, ...], ...], ...]
    input_region: typing.Tuple[int, int]    # (address, size)
    output_region: typing.Tuple[int, int]   # (address, size)

    @property
    def traces(self) -> typing.Tuple[typing.Tuple[KernelOp, ...], ...]:
        """First-round traces (single-round callers)."""
        return self.rounds[0]

    @property
    def round_count(self) -> int:
        """Kernel rounds in this bundle."""
        return len(self.rounds)

    @property
    def input_bytes(self) -> int:
        """Input footprint of one round."""
        return self.input_region[1]

    @property
    def output_bytes(self) -> int:
        """Output footprint of one round."""
        return self.output_region[1]

    @property
    def total_bytes(self) -> int:
        """Data volume processed across all rounds (bandwidth
        denominator: every round reads the input and writes the
        output)."""
        return (self.input_bytes + self.output_bytes) * self.round_count

    @property
    def op_count(self) -> int:
        """Total trace length across rounds and agents."""
        return sum(len(trace) for round_traces in self.rounds
                   for trace in round_traces)


def generate_traces(spec: WorkloadSpec, agents: int = 7,
                    scale: float = 1.0, seed: int = 0,
                    output_base: int = OUTPUT_BASE,
                    rounds: int | None = None) -> TraceBundle:
    """Build deterministic per-round, per-agent traces for ``spec``.

    ``scale`` multiplies the reference footprint: 1.0 reproduces the
    spec's Table III volume, smaller values keep unit tests fast.
    ``rounds`` overrides the spec's kernel-round count.
    """
    if agents < 1:
        raise ValueError(f"need at least one agent, got {agents}")
    if not (math.isfinite(scale) and scale > 0):
        raise ValueError(f"scale must be finite and positive, got {scale}")
    round_count = spec.kernel_rounds if rounds is None else rounds
    if round_count < 1:
        raise ValueError(f"need >= 1 round, got {round_count}")
    rng = random.Random(f"{seed}:{spec.name}:{agents}")

    input_blocks = max(agents, int(spec.input_kb * 1024 * scale)
                       // BLOCK_BYTES)
    output_blocks = (max(agents, int(spec.output_kb * 1024 * scale)
                         // BLOCK_BYTES)
                     if spec.output_kb else 0)

    all_rounds = []
    for _ in range(round_count):
        traces = []
        for agent in range(agents):
            in_slice = _slice_for(agent, agents, input_blocks)
            out_slice = _slice_for(agent, agents, output_blocks)
            traces.append(tuple(_agent_trace(spec, rng, in_slice,
                                             out_slice, output_base)))
        all_rounds.append(tuple(traces))
    return TraceBundle(
        spec=spec,
        rounds=tuple(all_rounds),
        input_region=(0, input_blocks * BLOCK_BYTES),
        output_region=(output_base, output_blocks * BLOCK_BYTES),
    )


# ----------------------------------------------------------------------
# Internals
# ----------------------------------------------------------------------
def _slice_for(agent: int, agents: int, blocks: int) -> range:
    per_agent = blocks // agents
    extra = blocks % agents
    start = agent * per_agent + min(agent, extra)
    length = per_agent + (1 if agent < extra else 0)
    return range(start, start + length)


def _agent_trace(spec: WorkloadSpec, rng: random.Random,
                 in_blocks: range, out_blocks: range,
                 output_base: int) -> typing.Iterator[KernelOp]:
    order = list(in_blocks)
    if not spec.sequential:
        rng.shuffle(order)

    out_iter = iter(out_blocks)
    outputs_total = len(out_blocks)
    inputs_total = max(1, len(order))
    emitted_outputs = 0
    compute_per_block = max(
        1, int(BLOCK_BYTES * spec.compute_ops_per_byte))
    recent: typing.List[int] = []

    for index, block in enumerate(order):
        address = block * BLOCK_BYTES
        # Touch the block operand by operand; the first load misses,
        # the rest hit L1 — modelled as one load plus compute sized
        # for the whole block.
        yield LoadOp(address, OPERAND_BYTES)
        yield ComputeOp(compute_per_block,
                        dsp_intrinsics=spec.dsp_intrinsics)
        # Reuse: revisit a recently-touched block (cache-friendly).
        if recent and rng.random() < spec.reuse_factor:
            revisit = rng.choice(recent)
            yield LoadOp(revisit * BLOCK_BYTES, OPERAND_BYTES)
            yield ComputeOp(max(1, compute_per_block // 4),
                            dsp_intrinsics=spec.dsp_intrinsics)
        recent.append(block)
        if len(recent) > 8:
            recent.pop(0)
        # Pace output emission so writes interleave with reads the way
        # the workload's write ratio dictates.
        due = (index + 1) * outputs_total // inputs_total
        while emitted_outputs < due:
            out_block = next(out_iter)
            yield StoreOp(output_base + out_block * BLOCK_BYTES,
                          BLOCK_BYTES)
            emitted_outputs += 1
    # Flush any rounding remainder.
    for out_block in out_iter:
        yield StoreOp(output_base + out_block * BLOCK_BYTES, BLOCK_BYTES)
