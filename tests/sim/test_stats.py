"""Tests for the statistics containers."""

import math
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Breakdown, Counter, Histogram, LatencySketch, TimeSeries
from repro.sim.stats import DEFAULT_SKETCH_LAYOUT, SketchLayout


class TestCounter:
    def test_add_accumulates(self):
        counter = Counter("bytes")
        counter.add(10)
        counter.add(5)
        assert counter.value == 15
        assert counter.events == 2

    def test_mean(self):
        counter = Counter()
        counter.add(4)
        counter.add(8)
        assert counter.mean == 6

    def test_mean_of_empty_is_zero(self):
        assert Counter().mean == 0.0


class TestBreakdown:
    def test_add_and_total(self):
        bd = Breakdown("time")
        bd.add("compute", 30.0)
        bd.add("storage", 70.0)
        bd.add("compute", 10.0)
        assert bd.get("compute") == 40.0
        assert bd.total == 110.0

    def test_missing_category_reads_zero(self):
        assert Breakdown().get("nope") == 0.0

    def test_fractions_normalize(self):
        bd = Breakdown()
        bd.add("a", 1.0)
        bd.add("b", 3.0)
        fractions = bd.fractions()
        assert fractions["a"] == pytest.approx(0.25)
        assert fractions["b"] == pytest.approx(0.75)

    def test_fractions_of_empty_breakdown(self):
        assert Breakdown().fractions() == {}

    def test_merge(self):
        left, right = Breakdown(), Breakdown()
        left.add("x", 1.0)
        right.add("x", 2.0)
        right.add("y", 5.0)
        left.merge(right)
        assert left.get("x") == 3.0
        assert left.get("y") == 5.0

    def test_scaled_returns_new_breakdown(self):
        bd = Breakdown()
        bd.add("a", 2.0)
        doubled = bd.scaled(2.0)
        assert doubled.get("a") == 4.0
        assert bd.get("a") == 2.0

    def test_categories_preserve_insertion_order(self):
        bd = Breakdown()
        for cat in ("z", "a", "m"):
            bd.add(cat, 1.0)
        assert bd.categories == ("z", "a", "m")


class TestTimeSeries:
    def test_value_at_is_a_step_function(self):
        ts = TimeSeries()
        ts.record(0.0, 1.0)
        ts.record(10.0, 3.0)
        assert ts.value_at(-1.0) == 0.0
        assert ts.value_at(0.0) == 1.0
        assert ts.value_at(9.999) == 1.0
        assert ts.value_at(10.0) == 3.0
        assert ts.value_at(100.0) == 3.0

    def test_record_rejects_time_travel(self):
        ts = TimeSeries()
        ts.record(5.0, 1.0)
        with pytest.raises(ValueError):
            ts.record(4.0, 2.0)

    def test_time_weighted_mean(self):
        ts = TimeSeries()
        ts.record(0.0, 2.0)
        ts.record(5.0, 4.0)
        # [0,5): 2, [5,10): 4 -> mean 3
        assert ts.time_weighted_mean(0.0, 10.0) == pytest.approx(3.0)

    def test_time_weighted_mean_empty_interval_raises(self):
        with pytest.raises(ValueError):
            TimeSeries().time_weighted_mean(5.0, 5.0)

    def test_resample_buckets(self):
        ts = TimeSeries()
        ts.record(0.0, 0.0)
        ts.record(50.0, 10.0)
        buckets = ts.resample(0.0, 100.0, 2)
        assert buckets[0] == (25.0, pytest.approx(0.0))
        assert buckets[1] == (75.0, pytest.approx(10.0))

    def test_resample_needs_a_bucket(self):
        with pytest.raises(ValueError):
            TimeSeries().resample(0.0, 1.0, 0)


class TestHistogram:
    def test_mean_min_max(self):
        hist = Histogram()
        for v in (1.0, 3.0, 2.0):
            hist.add(v)
        assert hist.mean == pytest.approx(2.0)
        assert hist.minimum == 1.0
        assert hist.maximum == 3.0

    def test_empty_histogram_stats(self):
        hist = Histogram()
        assert hist.mean == 0.0
        assert math.isnan(hist.minimum)
        assert math.isnan(hist.maximum)

    def test_percentile_nearest_rank(self):
        hist = Histogram()
        for v in range(1, 101):
            hist.add(float(v))
        assert hist.percentile(0.5) == 50.0
        assert hist.percentile(0.99) == 99.0
        assert hist.percentile(1.0) == 100.0
        assert hist.percentile(0.0) == 1.0

    def test_percentile_validates_inputs(self):
        hist = Histogram()
        with pytest.raises(ValueError):
            hist.percentile(0.5)
        hist.add(1.0)
        with pytest.raises(ValueError):
            hist.percentile(1.5)

    def test_unsorted_inserts_still_sort(self):
        hist = Histogram()
        for v in (9.0, 1.0, 5.0):
            hist.add(v)
        assert hist.percentile(0.0) == 1.0
        assert len(hist) == 3

    def test_equal_then_smaller_inserts_resort(self):
        # Regression: `add` once treated only strictly-descending
        # inserts as unsorting, so an equal value followed by a smaller
        # one could leave the sorted flag stale and corrupt percentiles.
        hist = Histogram()
        for v in (5.0, 5.0, 1.0, 3.0):
            hist.add(v)
        assert hist.percentile(0.0) == 1.0
        assert hist.percentile(1.0) == 5.0
        assert hist.percentile(0.5) == 3.0

    def test_sorted_flag_tracks_tail_not_history(self):
        hist = Histogram()
        hist.add(2.0)
        hist.add(1.0)   # unsorted
        assert hist.percentile(0.0) == 1.0  # forces a sort
        hist.add(3.0)   # appending beyond the max keeps it sorted
        assert hist.percentile(1.0) == 3.0
        assert hist.percentile(0.0) == 1.0

    def test_single_sample_is_every_quantile(self):
        hist = Histogram()
        hist.add(7.0)
        for q in (0.0, 0.5, 0.99, 1.0):
            assert hist.percentile(q) == 7.0

    def test_nearest_rank_never_interpolates(self):
        # Two samples: any q <= 0.5 resolves to the first, above it to
        # the second — never a value between them.
        hist = Histogram()
        hist.add(10.0)
        hist.add(20.0)
        assert hist.percentile(0.5) == 10.0
        assert hist.percentile(0.500001) == 20.0
        assert hist.percentile(0.95) == 20.0

    def test_quantiles_mapping(self):
        hist = Histogram()
        assert hist.quantiles() == {}
        for v in range(1, 1001):
            hist.add(float(v))
        quantiles = hist.quantiles()
        assert quantiles == {"p50": 500.0, "p95": 950.0,
                             "p99": 990.0, "p999": 999.0}


class TestSketchLayout:
    def test_spec_string(self):
        assert DEFAULT_SKETCH_LAYOUT.spec() == "log2[0,40)x16"
        assert SketchLayout(2, 10, 4).spec() == "log2[2,10)x4"

    def test_validation(self):
        with pytest.raises(ValueError):
            SketchLayout(min_exp=5, max_exp=5)
        with pytest.raises(ValueError):
            SketchLayout(subbuckets=0)

    def test_index_and_bounds_agree(self):
        layout = SketchLayout(0, 8, 8)
        for index in range(layout.bucket_count):
            lo, hi = layout.bounds(index)
            assert layout.index(lo) == index
            # hi is exclusive: the next bucket starts there.
            if hi < layout.max_value:
                assert layout.index(hi) == index + 1

    def test_bounds_range_check(self):
        with pytest.raises(ValueError):
            DEFAULT_SKETCH_LAYOUT.bounds(-1)
        with pytest.raises(ValueError):
            DEFAULT_SKETCH_LAYOUT.bounds(
                DEFAULT_SKETCH_LAYOUT.bucket_count)


class TestLatencySketch:
    def test_empty_sketch(self):
        sketch = LatencySketch()
        assert len(sketch) == 0
        assert sketch.mean == 0.0
        assert sketch.quantiles() == {}
        with pytest.raises(ValueError):
            sketch.percentile(0.5)

    def test_single_sample_quantiles_are_that_sample(self):
        sketch = LatencySketch()
        sketch.add(100.0)
        # One bucket's upper bound, clamped to max_value == the sample.
        for q in (0.0, 0.5, 1.0):
            assert sketch.percentile(q) == 100.0

    def test_relative_error_within_one_bucket(self):
        sketch = LatencySketch()
        exact = Histogram()
        for v in range(1, 5000):
            sketch.add(float(v))
            exact.add(float(v))
        for q in (0.5, 0.95, 0.99, 0.999):
            truth = exact.percentile(q)
            approx = sketch.percentile(q)
            assert approx >= truth  # bucket upper bound: never under
            assert approx <= truth * (1 + 1 / 16) + 1e-9

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            LatencySketch().add(float("nan"))

    def test_clamping_is_observable(self):
        layout = SketchLayout(2, 6, 4)  # grid [4, 64)
        sketch = LatencySketch(layout=layout)
        sketch.add(1.0)      # below grid -> first bucket
        sketch.add(1000.0)   # above grid -> last bucket
        assert sketch.clamped == 2
        assert sketch.count == 2
        assert sketch.min_value == 1.0
        assert sketch.max_value == 1000.0
        # Quantiles stay inside the observed min/max despite clamping.
        assert sketch.percentile(0.0) >= 1.0
        assert sketch.percentile(1.0) <= 1000.0

    def test_percentile_validates_fraction(self):
        sketch = LatencySketch()
        sketch.add(1.0)
        with pytest.raises(ValueError):
            sketch.percentile(1.5)

    def test_merge_layout_mismatch_names_both_specs(self):
        left = LatencySketch()
        left.add(5.0)
        right = LatencySketch(layout=SketchLayout(0, 8, 8))
        right.add(5.0)
        with pytest.raises(ValueError) as excinfo:
            left.merge(right)
        assert "log2[0,40)x16" in str(excinfo.value)
        assert "log2[0,8)x8" in str(excinfo.value)

    def test_pristine_sketch_adopts_incoming_layout(self):
        fresh = LatencySketch()
        other = LatencySketch(layout=SketchLayout(0, 8, 8))
        other.add(5.0)
        fresh.merge(other)
        assert fresh.layout == other.layout
        assert fresh.count == 1

    def test_payload_round_trip(self):
        # A cell's sketch reaches the parent pickled, then merges into a
        # fresh container of the run's registry.
        sketch = LatencySketch("lat")
        for v in (1.0, 17.0, 900.0):
            sketch.add(v)
        rebuilt = LatencySketch("lat")
        rebuilt.merge(pickle.loads(pickle.dumps(sketch)))
        assert rebuilt.to_payload() == sketch.to_payload()
        assert rebuilt.quantiles() == sketch.quantiles()


#: Strategy: sample batches on (and around) the default grid.
_samples = st.lists(
    st.floats(min_value=0.25, max_value=2.0**41,
              allow_nan=False, allow_infinity=False),
    max_size=60)


class TestSketchMergeProperties:
    @given(_samples, _samples)
    @settings(max_examples=60, deadline=None)
    def test_merge_commutes_byte_for_byte(self, a, b):
        left, right = LatencySketch(), LatencySketch()
        for v in a:
            left.add(v)
        for v in b:
            right.add(v)
        ab, ba = LatencySketch(), LatencySketch()
        ab.merge(left), ab.merge(right)
        ba.merge(right), ba.merge(left)
        assert ab.to_payload() == ba.to_payload()

    @given(_samples, _samples, _samples)
    @settings(max_examples=60, deadline=None)
    def test_merge_is_associative(self, a, b, c):
        def sketch_of(values):
            sketch = LatencySketch()
            for v in values:
                sketch.add(v)
            return sketch

        left = sketch_of(a)
        left.merge(sketch_of(b))
        left.merge(sketch_of(c))
        bc = sketch_of(b)
        bc.merge(sketch_of(c))
        right = sketch_of(a)
        right.merge(bc)
        assert left.to_payload() == right.to_payload()

    @given(_samples)
    @settings(max_examples=60, deadline=None)
    def test_merged_equals_serial(self, values):
        serial = LatencySketch()
        for v in values:
            serial.add(v)
        shards = [LatencySketch() for _ in range(3)]
        for i, v in enumerate(values):
            shards[i % 3].add(v)
        merged = LatencySketch()
        for shard in shards:
            merged.merge(shard)
        assert merged.to_payload() == serial.to_payload()


class TestMerge:
    """Each container folds another of its kind, as the cell runner
    merges one cell's registry into the run's."""

    def test_counter_adds_value_and_events(self):
        total, part = Counter(), Counter()
        total.add(2.0)
        part.add(3.0)
        part.add(1.0)
        total.merge(part)
        assert (total.value, total.events) == (6.0, 3)
        assert (part.value, part.events) == (4.0, 2)

    def test_histogram_pools_samples_in_order(self):
        total, part = Histogram(), Histogram()
        total.add(5.0)
        part.add(1.0)
        part.add(9.0)
        total.merge(part)
        assert total.samples == [5.0, 1.0, 9.0]
        assert total.percentile(0.0) == 1.0
        assert part.samples == [1.0, 9.0]

    def test_time_series_concatenates(self):
        total, part = TimeSeries(), TimeSeries()
        total.record(10.0, 1.0)
        part.record(0.0, 2.0)
        total.merge(part)
        assert total.times == [10.0, 0.0]
        assert total.values == [1.0, 2.0]

    def test_breakdown_adds_categories(self):
        total, part = Breakdown(), Breakdown()
        total.add("compute", 1.0)
        part.add("compute", 2.0)
        part.add("memory", 4.0)
        total.merge(part)
        assert total.as_dict() == {"compute": 3.0, "memory": 4.0}
