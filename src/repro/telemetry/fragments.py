"""Serializable telemetry fragments for process-parallel runs.

The cell runner (:mod:`repro.experiments.parallel`) executes each
cell, in-process or in a worker process, with a *fresh* tracer and
metrics registry.  This module is the bridge back: it captures a
cell's telemetry as a picklable **fragment** and merges fragments into
the ambient tracer/registry **deterministically** — always in cell
order, never completion order — so a sharded run reproduces a single
recording's registry contents and span stream exactly.

Two invariants make the merge parity-exact with a serial run:

* ``component_prefix`` reservations are *replayed*: each fragment
  records ``(assigned, base)`` pairs in reservation order, and the
  merge asks the target registry for a fresh prefix per base.  Cell 2's
  worker-local ``subsys`` therefore lands as ``subsys#2`` in the merged
  registry, exactly where the serial run would have put it.
* Shared (non-prefixed) paths such as ``sched.interleave.overlap_ns``
  accumulate: counters add, histograms pool samples, breakdowns merge
  category-wise, series concatenate, latency sketches fold bucket-wise
  (an associative integer merge) — matching a serial run where all
  cells write through one shared container.

Gauges keep their write semantics: plain gauges overwrite in merge
order (last cell wins, as in a serial run); peak gauges recorded via
``gauge_max`` fold with ``max``.
"""

from __future__ import annotations

import dataclasses
import itertools
import typing

from repro.sim.stats import (
    Breakdown,
    Counter,
    Histogram,
    LatencySketch,
    TimeSeries,
)
from repro.telemetry.hostprof import HostProfiler
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.tracer import RecordingTracer, Span

#: One serialized container: ``(path, kind tag, payload)``.
ContainerEntry = typing.Tuple[str, str, typing.Any]

#: One serialized gauge: ``(path, value, peak-semantics flag)``.
GaugeEntry = typing.Tuple[str, float, bool]

_KINDS: typing.Dict[str, typing.Type[typing.Any]] = {
    "counter": Counter,
    "histogram": Histogram,
    "breakdown": Breakdown,
    "series": TimeSeries,
    "sketch": LatencySketch,
}


@dataclasses.dataclass
class MetricsFragment:
    """One worker registry's contents, ready to pickle and merge.

    ``prefixes`` holds ``(assigned, base)`` reservations in order;
    ``containers`` and ``gauges`` preserve registration order so the
    merge replays the worker's writes faithfully.
    """

    prefixes: typing.List[typing.Tuple[str, str]]
    containers: typing.List[ContainerEntry]
    gauges: typing.List[GaugeEntry]

    def __len__(self) -> int:
        return len(self.containers) + len(self.gauges)

    def counter(self, path: str) -> float:
        """Value of the counter at ``path`` (0.0 when none was made)."""
        for entry_path, kind, payload in self.containers:
            if entry_path == path and kind == "counter":
                return float(payload[0])
        return 0.0


@dataclasses.dataclass
class TracerFragment:
    """One worker tracer's record, ready to pickle and merge.

    Spans/instants keep their worker-relative ``span_id``; the merge
    re-numbers them from the target tracer's counter so merged streams
    stay collision-free.
    """

    spans: typing.List[Span]
    instants: typing.List[Span]
    commands: typing.List[typing.Any]
    kernel_events: typing.List[typing.Tuple[float, str]]

    def __len__(self) -> int:
        return len(self.spans) + len(self.instants)


@dataclasses.dataclass
class HostProfFragment:
    """One worker host-profiler's record, ready to pickle and merge.

    The payload is :meth:`repro.telemetry.hostprof.HostProfiler.
    to_payload` — integer bucket sums and census counts plus the
    batch-size sample list, so merging is associative (any grouping of
    fragments folds to the same totals) and, merged in cell-key order,
    reproduces a serial run's census byte-for-byte.  Host nanoseconds
    legitimately differ between serial and sharded runs (different
    host work happened); only the census is parity-exact.
    """

    payload: typing.Dict[str, typing.Any]

    def __len__(self) -> int:
        return len(self.payload.get("buckets", []))


# ----------------------------------------------------------------------
# Capture (worker side)
# ----------------------------------------------------------------------
def capture_metrics(registry: MetricsRegistry) -> MetricsFragment:
    """Snapshot ``registry`` into a picklable fragment."""
    containers: typing.List[ContainerEntry] = []
    for path, container in registry._containers.items():
        if isinstance(container, Counter):
            containers.append(
                (path, "counter", (container.value, container.events)))
        elif isinstance(container, Histogram):
            containers.append((path, "histogram", list(container.samples)))
        elif isinstance(container, Breakdown):
            containers.append((path, "breakdown", container.as_dict()))
        elif isinstance(container, TimeSeries):
            containers.append((path, "series",
                               (list(container.times),
                                list(container.values))))
        elif isinstance(container, LatencySketch):
            containers.append((path, "sketch", container.to_payload()))
    gauges = [(path, value, path in registry._gauge_max_paths)
              for path, value in registry._gauges.items()]
    return MetricsFragment(
        prefixes=list(registry._prefixes.items()),
        containers=containers,
        gauges=gauges)


def capture_tracer(tracer: RecordingTracer) -> TracerFragment:
    """Snapshot ``tracer`` into a picklable fragment."""
    return TracerFragment(
        spans=list(tracer.spans),
        instants=list(tracer.instants),
        commands=list(tracer.commands),
        kernel_events=list(tracer.kernel_events))


def capture_hostprof(profiler: HostProfiler) -> HostProfFragment:
    """Snapshot ``profiler`` into a picklable fragment."""
    return HostProfFragment(payload=profiler.to_payload())


# ----------------------------------------------------------------------
# Merge (parent side)
# ----------------------------------------------------------------------
def merge_metrics(target: MetricsRegistry,
                  fragment: MetricsFragment) -> None:
    """Fold one fragment into ``target`` (call in cell-key order)."""
    if not target.enabled:
        return
    remap: typing.Dict[str, str] = {}
    for assigned, base in fragment.prefixes:
        remap[assigned] = target.component_prefix(base)

    def rewrite(path: str) -> str:
        best = ""
        for assigned in remap:
            if ((path == assigned or path.startswith(assigned + "."))
                    and len(assigned) > len(best)):
                best = assigned
        if not best:
            return path
        return remap[best] + path[len(best):]

    for path, kind, payload in fragment.containers:
        if kind not in _KINDS:
            raise ValueError(f"unknown container kind {kind!r} at {path!r}")
        container = target._get_or_create(rewrite(path), _KINDS[kind])
        if kind == "counter":
            value, events = payload
            container.value += value
            container.events += events
        elif kind == "histogram":
            for sample in payload:
                container.add(sample)
        elif kind == "breakdown":
            for category, amount in payload.items():
                container.add(category, amount)
        elif kind == "sketch":
            # Associative integer-bucket fold: any merge grouping of
            # fragments reproduces the serial sketch byte-for-byte.
            container.merge(LatencySketch.from_payload(path, payload))
        else:  # series: concatenation (worker series are cell-local)
            times, values = payload
            container.times.extend(times)
            container.values.extend(values)
    for path, value, is_peak in fragment.gauges:
        if is_peak:
            target.gauge_max(rewrite(path), value)
        else:
            target.gauge(rewrite(path), value)


def merge_tracer(target: RecordingTracer,
                 fragment: TracerFragment) -> None:
    """Append one fragment's record to ``target`` (in cell-key order).

    Worker ids are contiguous from 1 across spans *and* instants (they
    share one counter), so shifting every id by the target's consumed
    count reproduces the id stream a serial run would have assigned —
    including the span/instant interleaving.  Scopes nest under the
    target's current scope, as if the cell had recorded inside it.
    """
    base = len(target.spans) + len(target.instants)
    outer = target._current_scope()
    for records, sink in ((fragment.spans, target.spans),
                          (fragment.instants, target.instants)):
        sink.extend(dataclasses.replace(
            span, span_id=base + span.span_id,
            scope="/".join(filter(None, (outer, span.scope))))
            for span in records)
    target.commands.extend(fragment.commands)
    target.kernel_events.extend(fragment.kernel_events)
    # Re-seat the target's counter past the ids just claimed.
    target._ids = itertools.count(base + len(fragment) + 1)


def merge_hostprof(target: HostProfiler,
                   fragment: HostProfFragment) -> None:
    """Fold one host-profile fragment into ``target``.

    Pure integer sums plus batch-sample concatenation — associative,
    and in cell-key order it reproduces the serial census exactly.
    """
    target.merge(HostProfiler.from_payload(fragment.payload))
