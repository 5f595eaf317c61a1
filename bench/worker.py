"""One workload's timed and traced passes, in a process of its own.

``python -m bench.worker WORKLOAD SEED SECONDS`` (started by
``bench/run.py``) builds the workload's cells, then:

1. **Timed pass** — repeats the cell list with tracing off, until
   ``SECONDS`` have passed and at least three repetitions ran.  Each
   cell runs on a collected heap between two runs of the calibration
   kernel (:mod:`bench.calibration`), and its time is normalized by
   them.  ``wall_s`` sums each cell's median normalized time.
   ``ru_maxrss`` is read right after this pass.
2. **Traced pass** — one repetition under ``use_hostprof(HostProfiler())``
   and nothing else: a ``MetricsRegistry`` would crash suite-quick (see
   README.md, known defects).  Only here does the worker wrap
   ``PramSubsystem.__init__`` to read the subsystems' counters,
   ``Simulator.run`` as the stopwatch the profiler's total is checked
   against, and ``ExperimentConfig.bundle`` for trace-generation time.

It prints one JSON object: ``end_to_end`` and ``per_layer`` metrics
(``setup_s`` excepted, which ``bench/run.py`` measures), the number of
cells, and the failed checks by cell.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import gc
import json
import resource
import statistics
import sys
import time
import typing

from bench import calibration, workloads
from bench.layers import layer_map, layer_totals
from repro.controller import PramSubsystem
from repro.controller.request import reset_request_ids
from repro.experiments.runner import ExperimentConfig
from repro.sim import LatencySketch, Resource, Simulator, Timeout
from repro.sim.hostprof import use_hostprof
from repro.telemetry import HostProfiler
from repro.telemetry.hostprof import KERNEL_BUCKET

MIN_REPETITIONS = 3
#: Share of the ``Simulator.run`` stopwatch the profiler must account
#: for (the bar ``benchmarks/test_perf_simulator.py`` sets).
MIN_ATTRIBUTED_FRACTION = 0.95


@dataclasses.dataclass
class Outcome:
    """One call of one cell: host seconds and its result or error."""

    seconds: float
    summary: typing.Any = None
    canonical: typing.Optional[str] = None
    error: typing.Optional[str] = None
    #: ``seconds`` in reference seconds (timed pass only).
    reference_s: float = 0.0


def run_cell(cell: workloads.Cell) -> Outcome:
    """Call ``cell`` with request ids restarted (the per-cell boundary
    the experiment CLI and ``run_matrix`` use)."""
    reset_request_ids()
    start = time.perf_counter()
    try:
        summary = cell.run()
    except Exception as exc:  # a raising cell is a measured failure
        return Outcome(time.perf_counter() - start,
                       error=f"raised {type(exc).__name__}: {exc}")
    seconds = time.perf_counter() - start
    return Outcome(seconds, summary, workloads.canonical(summary))


def timed_pass(cells: typing.Sequence[workloads.Cell], seconds: float
               ) -> typing.List[typing.List[Outcome]]:
    """Per-cell outcomes of every repetition, tracing off.

    Consecutive cells share a calibration run: the one after a cell is
    the one before the next.
    """
    outcomes: typing.List[typing.List[Outcome]] = [[] for _ in cells]
    gc.collect()
    before = calibration.measure()
    start = time.perf_counter()
    repetitions = 0
    while (repetitions < MIN_REPETITIONS
           or time.perf_counter() - start < seconds):
        for index, cell in enumerate(cells):
            outcome = run_cell(cell)
            gc.collect()
            after = calibration.measure()
            outcome.reference_s = calibration.normalize(
                outcome.seconds, before, after)
            outcomes[index].append(outcome)
            before = after
        repetitions += 1
    return outcomes


def median_sum(outcomes: typing.Sequence[typing.Sequence[Outcome]]
               ) -> float:
    """Sum over cells of each cell's median normalized time."""
    return sum(statistics.median(outcome.reference_s
                                 for outcome in cell_outcomes)
               for cell_outcomes in outcomes)


class Stopwatch:
    """Host nanoseconds spent inside the functions it wraps."""

    def __init__(self) -> None:
        self.ns = 0

    def wrap(self, function: typing.Callable) -> typing.Callable:
        @functools.wraps(function)
        def timed(*args: typing.Any, **kwargs: typing.Any) -> typing.Any:
            start = time.perf_counter_ns()
            try:
                return function(*args, **kwargs)
            finally:
                self.ns += time.perf_counter_ns() - start
        return timed


@contextlib.contextmanager
def patched(owner: type, name: str,
            wrapper: typing.Callable[[typing.Callable], typing.Callable]
            ) -> typing.Iterator[None]:
    """Replace ``owner.name`` by ``wrapper(original)`` for the block."""
    original = vars(owner)[name]
    setattr(owner, name, wrapper(original))
    try:
        yield
    finally:
        setattr(owner, name, original)


def collecting_init(built: typing.List[PramSubsystem]
                    ) -> typing.Callable[[typing.Callable], typing.Callable]:
    """``PramSubsystem.__init__`` wrapper that records each instance."""
    def wrap(init: typing.Callable) -> typing.Callable:
        @functools.wraps(init)
        def collect(self: PramSubsystem, *args: typing.Any,
                    **kwargs: typing.Any) -> None:
            init(self, *args, **kwargs)
            built.append(self)
        return collect
    return wrap


@dataclasses.dataclass
class ControllerCounters:
    """Public counters summed over the traced pass's subsystems."""

    chunks_read: int = 0
    chunks_written: int = 0
    rab_hits: int = 0
    rdb_hits: int = 0
    phase_skips: int = 0
    pre_resets: int = 0
    latency: LatencySketch = dataclasses.field(
        default_factory=lambda: LatencySketch("bench.latency"))

    def add(self, subsystem: PramSubsystem) -> None:
        for channel in subsystem.channels:
            self.chunks_read += channel.chunks_read
            self.chunks_written += channel.chunks_written
            self.rab_hits += channel.rab_hits
            self.rdb_hits += channel.rdb_hits
            self.phase_skips += sum(channel.phase_skips.values())
            self.pre_resets += channel.pre_resets_issued
        self.latency.merge(subsystem.merged_latency_sketch())


def fault_free_violation(subsystem: PramSubsystem) -> typing.Optional[str]:
    """Why a fault-free subsystem's request accounting is wrong, if it is."""
    if subsystem.fault_config is not None:
        return None
    if subsystem.requests_failed or subsystem.requests_degraded:
        return (f"fault-free subsystem reported "
                f"{subsystem.requests_failed} failed and "
                f"{subsystem.requests_degraded} degraded requests")
    return None


@dataclasses.dataclass
class TracedPass:
    """What one profiled repetition saw."""

    outcomes: typing.List[Outcome]
    profiler: HostProfiler
    counters: ControllerCounters
    run_ns: int
    failures: typing.Dict[str, str]


def traced_pass(cells: typing.Sequence[workloads.Cell],
                bundle_watch: Stopwatch) -> TracedPass:
    """One repetition under the host profiler alone."""
    profiler = HostProfiler()
    counters = ControllerCounters()
    run_watch = Stopwatch()
    built: typing.List[PramSubsystem] = []
    outcomes = []
    failures = {}
    with patched(PramSubsystem, "__init__", collecting_init(built)), \
            patched(Simulator, "run", run_watch.wrap), \
            patched(ExperimentConfig, "bundle", bundle_watch.wrap), \
            use_hostprof(profiler):
        for cell in cells:
            gc.collect()
            outcome = run_cell(cell)
            outcomes.append(outcome)
            # Read each cell's subsystems as it ends, so the pass holds
            # no more than one cell's simulators alive.
            for subsystem in built:
                counters.add(subsystem)
                violation = fault_free_violation(subsystem)
                if violation is not None:
                    failures.setdefault(cell.name, violation)
            built.clear()
    return TracedPass(outcomes, profiler, counters, run_watch.ns, failures)


def check_cells(cells: typing.Sequence[workloads.Cell],
                timed: typing.Sequence[typing.Sequence[Outcome]],
                traced: TracedPass) -> typing.Dict[str, str]:
    """Cell name -> first failed check: an error, a result that differs
    between repetitions, or a bad fault-free subsystem."""
    failures = {}
    for cell, repetitions, traced_outcome in zip(cells, timed,
                                                 traced.outcomes):
        runs = [*repetitions, traced_outcome]
        errors = [outcome.error for outcome in runs if outcome.error]
        if errors:
            failures[cell.name] = errors[0]
        elif len({outcome.canonical for outcome in runs}) != 1:
            failures[cell.name] = ("simulated result differs between "
                                   "repetitions")
        elif cell.name in traced.failures:
            failures[cell.name] = traced.failures[cell.name]
    return failures


def trace_overhead(timed: typing.Sequence[typing.Sequence[Outcome]],
                   traced: TracedPass) -> float:
    """Host time of the traced pass over a median timed repetition."""
    repetitions = zip(*timed)
    untraced = statistics.median(
        sum(outcome.seconds for outcome in repetition)
        for repetition in repetitions)
    return _ratio(sum(outcome.seconds for outcome in traced.outcomes),
                  untraced)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def measure(workload: str, seed: int, seconds: float
            ) -> typing.Dict[str, typing.Any]:
    """Both passes over ``workload``; the worker's JSON document."""
    bundle_watch = Stopwatch()
    with patched(ExperimentConfig, "bundle", bundle_watch.wrap):
        cells = workloads.build(workload, seed)
    timed = timed_pass(cells, seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    wall_s = median_sum(timed)
    traced = traced_pass(cells, bundle_watch)
    failures = check_cells(cells, timed, traced)

    profiler = traced.profiler
    total_ns = profiler.total_ns()
    attributed = _ratio(total_ns, traced.run_ns)
    if attributed < MIN_ATTRIBUTED_FRACTION:
        # The layer split of every cell rests on this pass.
        for cell in cells:
            failures.setdefault(
                cell.name, f"traced pass attributed {attributed:.3f} of "
                f"Simulator.run time, below {MIN_ATTRIBUTED_FRACTION}")
    component_ns = profiler.component_totals()
    layers = layer_map()
    layer_ns, unmapped = layer_totals(component_ns, layers)
    events = sum(profiler.dispatches.values())
    controller_layers = ("controller", "pram")
    controller_events = sum(
        count for key, count in profiler.bucket_counts.items()
        if layers.get(key[0]) in controller_layers)
    counters = traced.counters
    chunks = counters.chunks_read + counters.chunks_written
    summaries = [outcome.summary for outcome in traced.outcomes
                 if isinstance(outcome.summary, dict)]
    replays = [summary["mb_s"] for summary in summaries
               if "mb_s" in summary]
    systems = [summary for summary in summaries if "total_ns" in summary]
    pe_busy_ns = sum(summary["compute_ns"] + summary["stall_ns"]
                     for summary in systems)

    def share(ns: float) -> float:
        return _ratio(ns, total_ns)

    def metric(value: float, unit: str) -> typing.Dict[str, typing.Any]:
        return {"value": value, "unit": unit}

    end_to_end = {
        "wall_s": metric(wall_s, "s"),
        "peak_rss_mb": metric(peak_rss_mb, "MB"),
        "events": metric(events, "count"),
    }
    per_layer = {
        "sim.kernel_share": metric(
            share(component_ns.get(KERNEL_BUCKET[0], 0)), "ratio"),
        "sim.resource_share": metric(
            share(component_ns.get(Resource.__name__, 0)), "ratio"),
        "sim.ns_per_event": metric(_ratio(wall_s * 1e9, events), "ns"),
        "sim.timeout_events": metric(
            profiler.dispatches.get(Timeout.__name__, 0), "count"),
        "sim.batch_mean": metric(profiler.batch_sizes.mean, "count"),
        "controller.share": metric(
            share(sum(layer_ns.get(layer, 0)
                      for layer in controller_layers)), "ratio"),
        "controller.events": metric(controller_events, "count"),
        "controller.chunks": metric(chunks, "count"),
        "controller.events_per_chunk": metric(
            _ratio(controller_events, chunks), "ratio"),
        "controller.rab_hit_ratio": metric(
            _ratio(counters.rab_hits, counters.chunks_read), "ratio"),
        "controller.rdb_hit_ratio": metric(
            _ratio(counters.rdb_hits, counters.chunks_read), "ratio"),
        # Each read chunk can skip two phases (pre-active, activate).
        "controller.phase_skip_ratio": metric(
            _ratio(counters.phase_skips, 2 * counters.chunks_read),
            "ratio"),
        "controller.pre_resets": metric(counters.pre_resets, "count"),
        "accel.share": metric(share(layer_ns.get("accel", 0)), "ratio"),
        "accel.stall_frac": metric(
            _ratio(sum(summary["stall_ns"] for summary in systems),
                   pe_busy_ns), "ratio"),
        "storage.share": metric(share(layer_ns.get("storage", 0)), "ratio"),
        "host.share": metric(share(layer_ns.get("host", 0)), "ratio"),
        "systems.share": metric(share(layer_ns.get("systems", 0)), "ratio"),
        "service.share": metric(share(layer_ns.get("service", 0)), "ratio"),
        "workloads.trace_s": metric(bundle_watch.ns / 1e9, "s"),
        "experiments.share": metric(
            share(layer_ns.get("experiments", 0)), "ratio"),
        "telemetry.trace_overhead": metric(trace_overhead(timed, traced),
                                           "ratio"),
        "telemetry.attributed_fraction": metric(attributed, "ratio"),
        "controller.sim_mb_s": metric(
            _ratio(sum(replays), len(replays)), "MB/s"),
        "controller.latency_p99_ns": metric(
            counters.latency.percentile(0.99) if counters.latency.count
            else 0.0, "ns"),
        "systems.sim_ms": metric(
            sum(summary["total_ns"] for summary in systems) / 1e6, "ms"),
        "energy.mj": metric(
            sum((summary["energy_mj"] for summary in systems), 0.0), "mJ"),
        "model.fingerprint": metric(workloads.fingerprint(
            {cell.name: outcome.canonical or ""
             for cell, outcome in zip(cells, traced.outcomes)}), "hash"),
    }
    return {
        "attempted": len(cells),
        "failures": failures,
        "unmapped": unmapped,
        "repetitions": len(timed[0]),
        "end_to_end": end_to_end,
        "per_layer": per_layer,
    }


def main(argv: typing.Sequence[str]) -> int:
    workload, seed, seconds = argv
    print(json.dumps(measure(workload, int(seed), float(seconds))))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
