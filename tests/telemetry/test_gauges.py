"""Span-derived gauges: busy-time clipping, zero-duration runs, depth."""

import math

import pytest

from repro.sim import Simulator
from repro.telemetry.gauges import (
    capture_window,
    littles_law,
    merged_length,
    request_depth_series,
    utilization_table,
)
from repro.telemetry.tracer import RecordingTracer, use_tracer


# ----------------------------------------------------------------------
# merged_length
# ----------------------------------------------------------------------
def test_merged_length_unions_overlaps():
    assert merged_length([(0.0, 10.0), (5.0, 15.0)]) == 15.0


def test_merged_length_disjoint():
    assert merged_length([(0.0, 2.0), (5.0, 6.0)]) == 3.0


def test_merged_length_empty_and_degenerate():
    assert merged_length([]) == 0.0
    assert merged_length([(3.0, 3.0)]) == 0.0


# ----------------------------------------------------------------------
# Busy time: span intervals unioned and clipped to the window
# ----------------------------------------------------------------------
def _record(tracer, name, track, start, end, asynchronous=False, **args):
    tracer.emit(name, track, start, end, asynchronous=asynchronous, **args)


def _busy(intervals, window, track="dev"):
    """The one row ``utilization_table`` gives for spans on ``track``."""
    tracer = RecordingTracer()
    for start, end in intervals:
        _record(tracer, "work", track, start, end)
    (row,) = utilization_table(tracer.spans, window)
    return row


def test_busy_ns_clips_at_window_edges():
    row = _busy([(0.0, 100.0)], (25.0, 75.0))
    assert row.busy_ns == 50.0
    assert row.utilization == 1.0


def test_interval_past_sim_end_clips():
    # A span that ends after the sampling window (the sim-end clip).
    row = _busy([(80.0, 200.0)], (0.0, 100.0))
    assert row.busy_ns == 20.0
    assert row.utilization == pytest.approx(0.2)


def test_zero_duration_window_never_divides_by_zero():
    row = _busy([(0.0, 5.0)], (3.0, 3.0))
    assert row.busy_ns == 0.0
    assert row.utilization == 0.0
    assert _busy([(0.0, 5.0)], (5.0, 2.0)).utilization == 0.0


def test_zero_length_interval_is_dropped():
    row = _busy([(4.0, 4.0)], (0.0, 10.0))
    assert row.busy_ns == 0.0
    assert row.utilization == 0.0


def test_backwards_interval_raises():
    with pytest.raises(ValueError, match="ends before it starts"):
        _busy([(10.0, 5.0)], (0.0, 20.0), track="g")


def test_nan_rejected():
    with pytest.raises(ValueError):
        _busy([(float("nan"), 1.0)], (0.0, 10.0))
    with pytest.raises(ValueError):
        _busy([(0.0, float("nan"))], (0.0, 10.0))


def test_nested_holds_count_once():
    # A span nested inside another on the same track: busy time is a
    # union, not a sum.
    row = _busy([(0.0, 10.0), (2.0, 8.0)], (0.0, 10.0))
    assert row.busy_ns == 10.0
    assert row.span_count == 2


# ----------------------------------------------------------------------
# Span-derived views
# ----------------------------------------------------------------------
def test_track_gauges_excludes_queue_tracks():
    tracer = RecordingTracer()
    _record(tracer, "read_burst", "ch0.bus", 0.0, 10.0)
    _record(tracer, "read_chunk", "ch0.inflight", 0.0, 50.0,
            asynchronous=True)
    _record(tracer, "read 0x0", "requests", 0.0, 60.0, asynchronous=True)
    table = utilization_table(tracer.spans, (0.0, 60.0))
    assert [row.track for row in table] == ["ch0.bus"]
    assert table[0].busy_ns == 10.0


def test_capture_window_empty_run():
    assert capture_window([]) == (0.0, 0.0)
    assert utilization_table([]) == []
    assert littles_law([]) is None


def test_utilization_table_sorted_busiest_first():
    tracer = RecordingTracer()
    _record(tracer, "cmd", "ch0.bus", 0.0, 90.0)
    _record(tracer, "activate", "ch0.m0.p0", 0.0, 30.0)
    table = utilization_table(tracer.spans)
    assert [row.track for row in table] == ["ch0.bus", "ch0.m0.p0"]
    assert table[0].utilization == pytest.approx(1.0)
    assert table[1].utilization == pytest.approx(30.0 / 90.0)


def test_request_depth_series_handoff_no_phantom_spike():
    tracer = RecordingTracer()
    # One request completes at t=10 exactly as the next begins: depth
    # must go 1 -> 1, never 2.
    _record(tracer, "read 0x0", "requests", 0.0, 10.0, asynchronous=True)
    _record(tracer, "read 0x1", "requests", 10.0, 20.0,
            asynchronous=True)
    series = request_depth_series(tracer.spans)
    assert max(series.values) == 1.0


def test_littles_law_exact_on_full_capture():
    tracer = RecordingTracer()
    _record(tracer, "read 0x0", "requests", 0.0, 30.0, asynchronous=True)
    _record(tracer, "read 0x1", "requests", 10.0, 40.0,
            asynchronous=True)
    _record(tracer, "read 0x2", "requests", 20.0, 50.0,
            asynchronous=True)
    check = littles_law(tracer.spans)
    assert check is not None
    assert check.request_count == 3
    assert check.mean_latency_ns == pytest.approx(30.0)
    # For a fully captured run the law is exact: the depth integral
    # IS the summed residence time.
    assert check.consistent(1e-9)
    assert check.ratio == pytest.approx(1.0)


def test_littles_law_none_for_zero_duration():
    tracer = RecordingTracer()
    _record(tracer, "read 0x0", "requests", 5.0, 5.0, asynchronous=True)
    assert littles_law(tracer.spans) is None


def test_gauges_from_live_simulation():
    # End to end: a simulated producer occupying a resource-like track.
    tracer = RecordingTracer()
    with use_tracer(tracer):
        sim = Simulator()

        def worker():
            start = sim.now
            yield sim.timeout(40.0)
            sim.tracer.emit("work", "dev.lane", start, sim.now)
            yield sim.timeout(60.0)

        sim.process(worker())
        sim.run()
    (row,) = utilization_table(tracer.spans, (0.0, sim.now))
    assert row.track == "dev.lane"
    assert row.utilization == pytest.approx(0.4)
    assert math.isclose(capture_window(tracer.spans)[1], 40.0)
