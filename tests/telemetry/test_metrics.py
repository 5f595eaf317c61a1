"""Metrics registry tests: namespaces, get-or-create, snapshots."""

import pytest

from repro.sim import Breakdown, Counter, Histogram, TimeSeries
from repro.telemetry import (
    NULL_METRICS,
    MetricsRegistry,
    current_metrics,
    use_metrics,
)


class TestComponentPrefix:
    def test_first_registrant_keeps_plain_name(self):
        metrics = MetricsRegistry()
        assert metrics.component_prefix("pram.ch0") == "pram.ch0"

    def test_collisions_get_numbered_suffixes(self):
        metrics = MetricsRegistry()
        metrics.component_prefix("pram.ch0")
        assert metrics.component_prefix("pram.ch0") == "pram.ch0#2"
        assert metrics.component_prefix("pram.ch0") == "pram.ch0#3"

    def test_disabled_registry_reserves_nothing(self):
        assert NULL_METRICS.component_prefix("x") == "x"
        assert NULL_METRICS.component_prefix("x") == "x"


class TestGetOrCreate:
    def test_counter_is_shared_by_path(self):
        metrics = MetricsRegistry()
        metrics.counter("sched.overlap").add(5)
        metrics.counter("sched.overlap").add(7)
        assert metrics.counter("sched.overlap").value == 12

    def test_kind_mismatch_raises(self):
        metrics = MetricsRegistry()
        metrics.counter("x")
        with pytest.raises(TypeError):
            metrics.histogram("x")

    def test_each_kind_constructs_its_container(self):
        metrics = MetricsRegistry()
        assert isinstance(metrics.counter("a"), Counter)
        assert isinstance(metrics.histogram("b"), Histogram)
        assert isinstance(metrics.breakdown("c"), Breakdown)
        assert isinstance(metrics.series("d"), TimeSeries)

    def test_disabled_registry_hands_out_throwaways(self):
        one = NULL_METRICS.counter("x")
        two = NULL_METRICS.counter("x")
        assert one is not two
        assert NULL_METRICS.paths() == []


class TestAttach:
    def test_attach_is_idempotent_for_same_object(self):
        metrics = MetricsRegistry()
        hist = Histogram("lat")
        assert metrics.attach("ch0.lat", hist) == "ch0.lat"
        assert metrics.attach("ch0.lat", hist) == "ch0.lat"
        assert metrics.get("ch0.lat") is hist

    def test_attach_collision_raises_naming_both_sites(self):
        metrics = MetricsRegistry()
        metrics.attach("ch0.lat", Histogram())  # first registration site
        with pytest.raises(ValueError) as excinfo:
            metrics.attach("ch0.lat", Histogram())
        message = str(excinfo.value)
        assert "ch0.lat" in message
        # Both registration sites are named (this file, two lines).
        assert message.count("test_metrics.py") == 2

    def test_attach_collision_with_a_gauge_raises(self):
        metrics = MetricsRegistry()
        metrics.gauge("depth", 3.0)
        with pytest.raises(ValueError):
            metrics.attach("depth", Histogram())

    def test_disabled_attach_stays_a_no_op(self):
        assert NULL_METRICS.attach("x", Histogram()) == "x"
        assert NULL_METRICS.attach("x", Histogram()) == "x"


class TestSnapshot:
    def test_counter_and_gauge_flatten_to_values(self):
        metrics = MetricsRegistry()
        metrics.counter("reads").add(3)
        metrics.gauge("pe.0.sleep_ns", 125.0)
        snap = metrics.snapshot()
        assert snap["reads"] == 3
        assert snap["pe.0.sleep_ns"] == 125.0

    def test_histogram_flattens_to_percentiles(self):
        metrics = MetricsRegistry()
        hist = metrics.histogram("lat")
        for v in range(1, 101):
            hist.add(float(v))
        snap = metrics.snapshot("lat*")
        assert snap["lat.count"] == 100
        assert snap["lat.p50"] == 50.0
        assert snap["lat.p99"] == 99.0

    def test_breakdown_flattens_per_category(self):
        metrics = MetricsRegistry()
        bd = metrics.breakdown("time")
        bd.add("compute", 30.0)
        bd.add("stall", 70.0)
        snap = metrics.snapshot()
        assert snap["time.compute"] == 30.0
        assert snap["time.total"] == 100.0

    def test_pattern_filters_paths(self):
        metrics = MetricsRegistry()
        metrics.counter("pram.ch0.rab_hits").add()
        metrics.counter("sched.hints.registered").add()
        assert metrics.paths("pram.*") == ["pram.ch0.rab_hits"]
        assert set(metrics.snapshot("sched.*")) == {
            "sched.hints.registered"}

    def test_summary_table_renders_all_paths(self):
        metrics = MetricsRegistry()
        metrics.counter("a.b").add(2)
        metrics.gauge("c.d", 1.5)
        table = metrics.summary_table()
        assert "a.b" in table
        assert "c.d" in table
        assert "metric" in table

    def test_empty_summary_says_so(self):
        assert "no metrics" in MetricsRegistry().summary_table()


class TestAmbientRegistry:
    def test_default_is_disabled(self):
        assert current_metrics() is NULL_METRICS
        assert not current_metrics().enabled

    def test_use_metrics_scopes_installation(self):
        metrics = MetricsRegistry()
        with use_metrics(metrics):
            assert current_metrics() is metrics
            current_metrics().counter("x").add()
        assert current_metrics() is NULL_METRICS
        assert metrics.counter("x").value == 1
