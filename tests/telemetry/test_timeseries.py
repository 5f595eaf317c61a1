"""Windowed sampling export, validation, and terminal rendering."""

import json

import pytest

from repro.controller import MemoryRequest, Op, PramSubsystem
from repro.sim import Simulator, TimeSeries, use_sampling
from repro.telemetry.metrics import MetricsRegistry, use_metrics
from repro.telemetry.session import Telemetry
from repro.telemetry.timeseries import (
    DEFAULT_WINDOW_NS,
    TIMESERIES_SCHEMA,
    Sampler,
    SamplingConfig,
    TimeWeightedTracker,
    export_document,
    heatline,
    load_timeseries,
    render_watch,
    sparkline,
    validate_timeseries,
    write_timeseries,
)


class TestTimeWeightedTracker:
    def test_constant_level(self):
        tracker = TimeWeightedTracker(TimeSeries())
        tracker.set_level(0.0, 3.0)
        assert tracker.close(0.0, 10.0) == pytest.approx(3.0)

    def test_mid_window_change(self):
        tracker = TimeWeightedTracker(TimeSeries())
        tracker.set_level(0.0, 2.0)
        tracker.set_level(5.0, 4.0)
        # [0,5): 2, [5,10): 4 -> mean 3.
        assert tracker.close(0.0, 10.0) == pytest.approx(3.0)

    def test_level_carries_across_windows(self):
        tracker = TimeWeightedTracker(TimeSeries())
        tracker.adjust(0.0, 6.0)
        tracker.close(0.0, 10.0)
        # No updates in the second window: the level persists.
        assert tracker.close(10.0, 20.0) == pytest.approx(6.0)
        assert tracker.level == 6.0

    def test_adjust_is_relative(self):
        tracker = TimeWeightedTracker(TimeSeries())
        tracker.adjust(0.0, 2.0)
        tracker.adjust(0.0, 2.0)
        tracker.adjust(5.0, -3.0)
        # [0,5): 4, [5,10): 1 -> mean 2.5.
        assert tracker.close(0.0, 10.0) == pytest.approx(2.5)


def _sampled_run(window_ns=500.0):
    """One PRAM read stream sampled into a fresh registry."""
    registry = MetricsRegistry()
    with use_metrics(registry), use_sampling(SamplingConfig(window_ns)):
        sim = Simulator()
        assert isinstance(sim.sampler, Sampler)
        subsystem = PramSubsystem(sim)

        def driver():
            for index in range(32):
                request = MemoryRequest(Op.READ, index * 512, 512)
                yield sim.process(subsystem.submit(request))

        sim.process(driver())
        sim.run()
    return registry


class TestExportDocument:
    def test_document_shape_and_schema(self):
        registry = _sampled_run()
        document = export_document(registry, window_ns=500.0)
        assert document["schema"] == TIMESERIES_SCHEMA
        assert document["window_ns"] == 500.0
        assert validate_timeseries(document) == []
        # The instrumented stack produced windowed series and sketches.
        assert any(".window." in name for name in document["series"])
        assert any(".sketch." in name for name in document["sketches"])

    def test_sketch_entries_carry_quantiles_and_spec(self):
        document = export_document(_sampled_run(), window_ns=500.0)
        entry = next(entry for name, entry in document["sketches"].items()
                     if name.endswith("sketch.read"))
        assert entry["spec"] == "log2[0,40)x16"
        assert set(entry["quantiles"]) == {"p50", "p95", "p99", "p999"}
        assert entry["count"] == sum(c for _, c in entry["buckets"])

    def test_empty_containers_are_skipped(self):
        registry = MetricsRegistry()
        registry.series("never.written")
        registry.sketch("never.sampled")
        document = export_document(registry, window_ns=100.0)
        assert document["series"] == {}
        assert document["sketches"] == {}


class TestWriteAndLoad:
    def test_json_round_trip(self, tmp_path):
        document = export_document(_sampled_run(), window_ns=500.0)
        path = str(tmp_path / "ts.json")
        write_timeseries(path, document)
        assert load_timeseries(path) == json.loads(
            json.dumps(document))  # exactly what JSON can represent

    def test_json_is_byte_deterministic(self, tmp_path):
        document = export_document(_sampled_run(), window_ns=500.0)
        first = str(tmp_path / "a.json")
        second = str(tmp_path / "b.json")
        write_timeseries(first, document)
        write_timeseries(second, document)
        with open(first, "rb") as a, open(second, "rb") as b:
            assert a.read() == b.read()

    def test_load_rejects_non_document(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("[1, 2, 3]\n")
        with pytest.raises(ValueError):
            load_timeseries(str(path))


class TestValidate:
    def test_flags_bad_schema_and_window(self):
        problems = validate_timeseries(
            {"schema": "nope", "window_ns": -1.0,
             "series": {}, "sketches": {}})
        assert len(problems) == 2

    def test_flags_ragged_and_unsorted_series(self):
        document = {
            "schema": TIMESERIES_SCHEMA, "window_ns": 10.0,
            "series": {"ragged": {"t": [0.0, 10.0], "v": [1.0]},
                       "unsorted": {"t": [10.0, 0.0], "v": [1.0, 2.0]}},
            "sketches": {}}
        problems = validate_timeseries(document)
        assert any("ragged" in p for p in problems)
        assert any("unsorted" in p for p in problems)

    def test_flags_sketch_count_mismatch(self):
        document = {
            "schema": TIMESERIES_SCHEMA, "window_ns": 10.0, "series": {},
            "sketches": {"lat": {"quantiles": {"p50": 1.0},
                                 "buckets": [[0, 2]], "count": 3}}}
        assert any("lat" in p for p in validate_timeseries(document))


class TestRendering:
    def test_sparkline_shape(self):
        line = sparkline([0.0, 1.0, 2.0, 3.0], width=4)
        assert len(line) == 4
        assert line[0] == "▁"
        assert line[-1] == "█"

    def test_flat_series_renders_flat(self):
        assert sparkline([5.0, 5.0, 5.0]) == "▁▁▁"
        assert heatline([5.0, 5.0]) == "  "

    def test_resampling_compresses_long_series(self):
        assert len(sparkline(list(range(1000)), width=60)) == 60

    def test_render_watch_lists_series_and_sketches(self):
        document = export_document(_sampled_run(), window_ns=500.0)
        text = render_watch(document)
        assert "time series" in text
        assert "latency sketches" in text
        assert "p999" in text

    def test_render_watch_heat_mode(self):
        document = {
            "schema": TIMESERIES_SCHEMA, "window_ns": 10.0,
            "series": {"q": {"t": [0.0, 10.0], "v": [0.0, 4.0]}},
            "sketches": {}}
        assert "█" in render_watch(document, heat=True)


class TestTelemetrySession:
    def test_timeseries_document_through_session(self, tmp_path):
        telemetry = Telemetry()
        with telemetry.activate():
            sim = Simulator()
            subsystem = PramSubsystem(sim)

            def driver():
                for index in range(8):
                    request = MemoryRequest(Op.READ, index * 512, 512)
                    yield sim.process(subsystem.submit(request))

            sim.process(driver())
            sim.run()
        document = telemetry.timeseries_document()
        assert validate_timeseries(document) == []
        assert document["window_ns"] == DEFAULT_WINDOW_NS
        path = str(tmp_path / "out.json")
        telemetry.write_timeseries(path)
        assert load_timeseries(path)["schema"] == TIMESERIES_SCHEMA
