"""Utilization and queue depth read off a span recording.

Everything here works on spans alone, so it works as well on a span
log read back from a file as on a live run:

* :func:`utilization_table` gives each hardware track's busy time — the
  union of its span intervals clipped to the capture window
  (:func:`merged_length`) — so a traced run yields partition busy%,
  channel-bus utilization and per-PE run time with no extra
  instrumentation.  A window the run never reached clips, and a
  zero-duration window has utilization 0, never a division by zero.
* :func:`request_depth_series` rebuilds the in-flight request-queue
  depth from the async request spans as a
  :class:`~repro.sim.stats.TimeSeries`.
* :func:`littles_law` cross-checks that depth against the measured
  latency (L = λ·W — the time-weighted mean depth must equal throughput
  times mean latency over the capture window, which for a fully
  captured run holds to float precision).
"""

from __future__ import annotations

import dataclasses
import math
import typing

from repro.sim.stats import TimeSeries
from repro.telemetry.tracer import Span

#: Tracks that hold overlapping in-flight work rather than an
#: exclusive hardware resource; busy% is meaningless for them.
_QUEUE_TRACK_SUFFIXES = (".inflight",)
_QUEUE_TRACKS = frozenset({"requests", "psc"})


def merged_length(
        intervals: typing.Iterable[typing.Tuple[float, float]]) -> float:
    """Total length of the union of (start, end) intervals."""
    ordered = sorted((lo, hi) for lo, hi in intervals if hi > lo)
    if not ordered:
        return 0.0
    pieces: typing.List[float] = []
    merged_lo, merged_hi = ordered[0]
    for lo, hi in ordered[1:]:
        if lo > merged_hi:
            pieces.append(merged_hi - merged_lo)
            merged_lo, merged_hi = lo, hi
        else:
            merged_hi = max(merged_hi, hi)
    pieces.append(merged_hi - merged_lo)
    return math.fsum(pieces)


@dataclasses.dataclass
class TrackUtilization:
    """One hardware lane's occupancy over the capture window."""

    track: str
    busy_ns: float
    utilization: float
    span_count: int


@dataclasses.dataclass
class LittlesLawCheck:
    """L = λ·W cross-check between queue depth and measured latency."""

    window_ns: float
    request_count: int
    mean_depth: float           # L: time-weighted in-flight requests
    throughput_per_ns: float    # λ: completions per simulated ns
    mean_latency_ns: float      # W: mean end-to-end request latency
    predicted_depth: float      # λ·W

    @property
    def ratio(self) -> float:
        """L / (λ·W); 1.0 when the telemetry is self-consistent."""
        if self.predicted_depth == 0.0:
            return 1.0 if self.mean_depth == 0.0 else math.inf
        return self.mean_depth / self.predicted_depth

    def consistent(self, tolerance: float = 1e-6) -> bool:
        """Does Little's law hold within ``tolerance``?"""
        return abs(self.ratio - 1.0) <= tolerance


def _is_resource_track(track: str) -> bool:
    if track in _QUEUE_TRACKS:
        return False
    return not any(track.endswith(suffix)
                   for suffix in _QUEUE_TRACK_SUFFIXES)


def capture_window(spans: typing.Sequence[Span]
                   ) -> typing.Tuple[float, float]:
    """The simulated window ``spans`` cover: (0, latest end).

    Simulations start at t=0, so utilization is "fraction of the run",
    not "fraction of the span's own lifetime".  Returns ``(0.0, 0.0)``
    for an empty capture (the zero-duration-run case).
    """
    if not spans:
        return (0.0, 0.0)
    return (0.0, max(span.end_ns for span in spans))


def utilization_table(
        spans: typing.Sequence[Span],
        window: typing.Tuple[float, float] | None = None,
) -> typing.List[TrackUtilization]:
    """Per-track busy time and utilization over ``window``, busiest first.

    A track's busy time is the union of its spans clipped to the window
    (the capture window by default).  Queue-like tracks (``requests``,
    ``*.inflight``, ``psc``) are left out: their spans overlap by
    design, so busy% would saturate meaninglessly.  A span that ends
    before it starts or has a NaN bound raises ``ValueError``: spans
    can come from a span-log file.
    """
    if window is None:
        window = capture_window(spans)
    start, end = window
    clipped: typing.Dict[str, typing.List[typing.Tuple[float, float]]] = {}
    for span in spans:
        if span.asynchronous or not _is_resource_track(span.track):
            continue
        lo, hi = span.start_ns, span.end_ns
        if math.isnan(lo) or math.isnan(hi):
            raise ValueError(
                f"span {span.name!r} on {span.track!r} has a NaN bound")
        if hi < lo:
            raise ValueError(
                f"span {span.name!r} on {span.track!r} ends before it "
                f"starts ({lo} -> {hi})")
        clipped.setdefault(span.track, []).append(
            (max(lo, start), min(hi, end)))
    length = end - start
    table = []
    for track, intervals in clipped.items():
        busy = merged_length(intervals)
        table.append(TrackUtilization(
            track=track, busy_ns=busy,
            utilization=busy / length if length > 0 else 0.0,
            span_count=len(intervals)))
    table.sort(key=lambda row: (-row.utilization, row.track))
    return table


def request_depth_series(spans: typing.Sequence[Span]) -> TimeSeries:
    """In-flight request depth rebuilt from the async request spans.

    Completions sort before submissions at the same instant, so a
    back-to-back handoff never shows a phantom depth spike.
    """
    deltas: typing.List[typing.Tuple[float, int]] = []
    for span in spans:
        if span.track != "requests" or not span.asynchronous:
            continue
        deltas.append((span.start_ns, 1))
        deltas.append((span.end_ns, -1))
    deltas.sort()
    series = TimeSeries("requests.depth")
    depth = 0
    for time, delta in deltas:
        depth += delta
        series.record(time, float(depth))
    return series


def littles_law(
        spans: typing.Sequence[Span]) -> LittlesLawCheck | None:
    """Cross-check queue depth against latency over a full capture.

    Returns None when the capture holds no request spans or spans no
    time (a zero-duration run has nothing to check).
    """
    requests = [span for span in spans
                if span.track == "requests" and span.asynchronous]
    if not requests:
        return None
    start = min(span.start_ns for span in requests)
    end = max(span.end_ns for span in requests)
    if end <= start:
        return None
    window = end - start
    depth = request_depth_series(requests)
    mean_depth = depth.time_weighted_mean(start, end)
    latencies = [span.end_ns - span.start_ns for span in requests]
    mean_latency = math.fsum(latencies) / len(latencies)
    throughput = len(latencies) / window
    return LittlesLawCheck(
        window_ns=window,
        request_count=len(requests),
        mean_depth=mean_depth,
        throughput_per_ns=throughput,
        mean_latency_ns=mean_latency,
        predicted_depth=throughput * mean_latency,
    )
