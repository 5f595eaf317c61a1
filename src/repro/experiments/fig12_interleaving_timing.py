"""Figure 12: the multi-resource aware interleaving timeline.

Reproduces the figure's two-request example: req-0 and req-1 target
different partitions of the same chip.  Under interleaving, req-0's
data burst proceeds during req-1's tRP+tRCD, so by the time the burst
finishes, req-1's row is already in its RDB.  The experiment issues
both requests against a real PRAM subsystem under the bare-metal and
interleaving policies and reports the completion times.

A second wave re-reads the same rows to demonstrate the three-phase
protocol's buffer hits: the rows are still latched in the RDBs, so
both pre-active and activate are skipped and only the burst remains.
"""

from __future__ import annotations

import contextlib
import typing

from repro.controller import MemoryRequest, Op, PramSubsystem, SchedulerPolicy
from repro.pram import PramGeometry
from repro.sim import Simulator
from repro.telemetry import (
    MetricsRegistry,
    current_metrics,
    current_tracer,
    use_metrics,
)

#: Compact geometry (timing-identical; capacity is irrelevant here).
_GEOMETRY = PramGeometry(channels=1, modules_per_channel=1,
                         partitions_per_bank=4, tiles_per_partition=1,
                         bitlines_per_tile=512, wordlines_per_tile=512)


def _partition_stride() -> int:
    geo = _GEOMETRY
    return geo.row_bytes * geo.modules_per_channel * geo.channels


@contextlib.contextmanager
def _measured() -> typing.Iterator[None]:
    """Guarantee overlap/phase-skip accounting is live for a run.

    The channel only tracks burst/array overlap while telemetry is
    active.  Overlap *is* Figure 12's quantity, so when no ambient
    tracer or metrics registry is installed (plain text runs), a
    throwaway local registry turns the accounting on.  An ambient one
    (``--observe``) is left in place so its summary sees this
    experiment's counters.
    """
    if current_metrics().enabled or current_tracer().enabled:
        yield
    else:
        with use_metrics(MetricsRegistry()):
            yield


def _requests(request_count: int) -> typing.List[MemoryRequest]:
    return [
        MemoryRequest(Op.READ, i * _partition_stride(), _GEOMETRY.row_bytes)
        for i in range(request_count)
    ]


def _run_policy(policy: SchedulerPolicy,
                request_count: int,
                ) -> typing.Tuple[typing.List[float], float]:
    """One wave of distinct-partition reads under ``policy``.

    Returns the per-request completion times and the burst/array
    overlap the channel observed (non-zero only when telemetry is on).
    """
    with _measured():
        sim = Simulator()
        subsystem = PramSubsystem(sim, geometry=_GEOMETRY, policy=policy)
    requests = _requests(request_count)
    with sim.tracer.scope(f"fig12:{policy.value}"):
        subsystem.run_stream(requests, mode="open")
    overlap_ns = sum(channel.overlap_ns for channel in subsystem.channels)
    return [request.complete_time for request in requests], overlap_ns


def _phase_skip_demo(request_count: int) -> typing.Dict[str, float]:
    """Re-read the same rows: RDB hits skip pre-active and activate.

    A fresh interleaved subsystem serves two identical waves.  The
    first wave senses one row per partition into that partition's RDB;
    with rdb_count >= partitions touched, the second wave hits every
    RDB and pays only the burst.
    """
    with _measured():
        sim = Simulator()
        subsystem = PramSubsystem(sim, geometry=_GEOMETRY,
                                  policy=SchedulerPolicy.INTERLEAVING)
    first = _requests(request_count)
    second = _requests(request_count)
    with sim.tracer.scope("fig12:phase-skip"):
        subsystem.run_stream(first, mode="open")
        mark = sim.now
        subsystem.run_stream(second, mode="open")
        second_wave_ns = sim.now - mark
    channel = subsystem.channels[0]
    return {
        "rab_hits": float(channel.rab_hits),
        "rdb_hits": float(channel.rdb_hits),
        "first_wave_ns": max(r.complete_time for r in first),
        "second_wave_ns": second_wave_ns,
    }


def run(request_count: int = 4) -> typing.Dict:
    """Returns completion times under both policies plus the overlap."""
    bare, _ = _run_policy(SchedulerPolicy.BARE_METAL, request_count)
    interleaved, overlap_ns = _run_policy(SchedulerPolicy.INTERLEAVING,
                                          request_count)
    skips = _phase_skip_demo(request_count)
    bare_total = max(bare)
    inter_total = max(interleaved)
    return {
        "request_count": request_count,
        "bare_metal_completions_ns": bare,
        "interleaved_completions_ns": interleaved,
        "bare_metal_total_ns": bare_total,
        "interleaved_total_ns": inter_total,
        "hidden_fraction": 1.0 - inter_total / bare_total,
        "interleave_overlap_ns": overlap_ns,
        "rdb_hits": skips["rdb_hits"],
        "rab_hits": skips["rab_hits"],
        "first_wave_ns": skips["first_wave_ns"],
        "second_wave_ns": skips["second_wave_ns"],
    }


def report(result: typing.Dict) -> str:
    """Text rendering of the figure's data."""
    lines = [
        "Figure 12: multi-resource aware interleaving",
        f"requests to distinct partitions: {result['request_count']}",
        f"bare-metal completion: {result['bare_metal_total_ns']:.1f} ns",
        f"interleaved completion: {result['interleaved_total_ns']:.1f} ns",
        f"latency hidden: {result['hidden_fraction']:.1%} "
        "(paper: interleaving hides access latency ~40%)",
        f"burst/array overlap observed: "
        f"{result['interleave_overlap_ns']:.1f} ns",
        f"re-read wave: {result['rdb_hits']:.0f} RDB hits skip both "
        f"pre-active and activate "
        f"({result['first_wave_ns']:.1f} ns -> "
        f"{result['second_wave_ns']:.1f} ns)",
    ]
    return "\n".join(lines)
