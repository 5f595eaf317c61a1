"""Unit tests for merging one cell's telemetry (a fragment of the run)
into the run's: ``MetricsRegistry.merge`` and ``RecordingTracer.merge``,
deterministic in cell order, and the pickle round trip a cell's session
takes out of a pool worker."""

import pickle

from repro.sim import LatencySketch
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.tracer import RecordingTracer


def _shipped(obj):
    """``obj`` as a parent process receives it from a pool worker."""
    return pickle.loads(pickle.dumps(obj))


def _worker_registry():
    """A registry shaped like one matrix cell's worker capture."""
    registry = MetricsRegistry()
    prefix = registry.component_prefix("subsys")
    registry.counter(f"{prefix}.requests").add(3)
    registry.histogram(f"{prefix}.latency_ns").add(10.0)
    registry.histogram(f"{prefix}.latency_ns").add(30.0)
    registry.sketch(f"{prefix}.sketch.read").add(10.0)
    registry.sketch(f"{prefix}.sketch.read").add(30.0)
    registry.counter("sched.interleave.overlap_ns").add(5)
    registry.gauge("pe.0.sleep_ns", 100.0)
    registry.gauge_max("sched.hints.depth_peak", 7.0)
    return registry


class TestMetricsFragment:
    def test_roundtrip_is_picklable(self):
        fragment = _worker_registry()
        clone = _shipped(fragment)
        assert clone._prefixes == fragment._prefixes
        assert clone.snapshot() == fragment.snapshot()
        assert clone._gauges == fragment._gauges

    def test_prefix_replay_reproduces_serial_suffixes(self):
        # Two cells each reserved "subsys" locally; merged in cell
        # order they must land as subsys / subsys#2, like a serial run.
        target = MetricsRegistry()
        target.merge(_shipped(_worker_registry()))
        target.merge(_shipped(_worker_registry()))
        snap = target.snapshot()
        assert snap["subsys.requests"] == 3
        assert snap["subsys#2.requests"] == 3

    def test_shared_counters_accumulate(self):
        target = MetricsRegistry()
        target.merge(_shipped(_worker_registry()))
        target.merge(_shipped(_worker_registry()))
        assert target.snapshot()["sched.interleave.overlap_ns"] == 10

    def test_plain_gauges_overwrite_and_peaks_fold(self):
        first = MetricsRegistry()
        first.gauge("plain", 1.0)
        first.gauge_max("peak", 9.0)
        second = MetricsRegistry()
        second.gauge("plain", 2.0)
        second.gauge_max("peak", 4.0)
        target = MetricsRegistry()
        target.merge(_shipped(first))
        target.merge(_shipped(second))
        snap = target.snapshot()
        assert snap["plain"] == 2.0  # last cell wins, as in serial
        assert snap["peak"] == 9.0   # max across cells

    def test_histogram_samples_pool(self):
        target = MetricsRegistry()
        target.merge(_shipped(_worker_registry()))
        target.merge(_shipped(_worker_registry()))
        snap = target.snapshot()
        assert snap["subsys.latency_ns.count"] == 2
        assert snap["subsys#2.latency_ns.count"] == 2

    def test_merge_into_disabled_registry_is_a_noop(self):
        target = MetricsRegistry(enabled=False)
        target.merge(_shipped(_worker_registry()))
        assert target.snapshot() == {}

    def test_sketches_fold_bucket_wise(self):
        # Two cells' sketches merge by bucket addition; the merged
        # payload is byte-identical to sketching all samples serially.
        target = MetricsRegistry()
        target.merge(_shipped(_worker_registry()))
        target.merge(_shipped(_worker_registry()))
        serial = LatencySketch()
        for value in (10.0, 30.0):
            serial.add(value)
        merged = target.sketch("subsys.sketch.read")
        assert merged.count == 2
        assert merged.to_payload() == serial.to_payload()
        # The second cell's prefix replay kept its sketch distinct.
        assert target.sketch("subsys#2.sketch.read").count == 2

    def test_sketch_merge_order_is_irrelevant(self):
        heavy = MetricsRegistry()
        heavy.sketch("lat").add(1000.0)
        light = MetricsRegistry()
        light.sketch("lat").add(2.0)
        ab, ba = MetricsRegistry(), MetricsRegistry()
        ab.merge(_shipped(heavy))
        ab.merge(_shipped(light))
        ba.merge(_shipped(light))
        ba.merge(_shipped(heavy))
        assert (ab.sketch("lat").to_payload()
                == ba.sketch("lat").to_payload())

    def test_merge_leaves_the_cell_registry_as_it_was(self):
        # The runner keeps each cell's registry for its profile: the
        # merge must copy into its own containers, never adopt them.
        cell = _worker_registry()
        before = cell.snapshot()
        target = MetricsRegistry()
        target.merge(cell)
        target.merge(_worker_registry())
        target.counter("sched.interleave.overlap_ns").add(100)
        assert cell.snapshot() == before


class TestLatestPrefix:
    def test_unreserved_base_maps_to_itself(self):
        assert MetricsRegistry().latest_prefix("pe.0") == "pe.0"

    def test_most_recent_reservation_wins(self):
        registry = MetricsRegistry()
        assert registry.component_prefix("pe.0") == "pe.0"
        assert registry.latest_prefix("pe.0") == "pe.0"
        assert registry.component_prefix("pe.0") == "pe.0#2"
        assert registry.latest_prefix("pe.0") == "pe.0#2"


class TestTracerFragment:
    def _worker_tracer(self):
        tracer = RecordingTracer()
        with tracer.scope("cell"):
            tracer.emit("compute", "pe0", 0.0, 10.0)
            tracer.instant("wake", "psc", 5.0)
            tracer.emit("transfer", "bus", 10.0, 20.0)
        tracer.command("cmd")
        return tracer

    def test_merge_preserves_span_instant_id_interleave(self):
        # Worker ids: compute=1, wake=2, transfer=3.  A serial run
        # interleaves spans and instants on one counter; the merge must
        # reproduce that, not renumber spans and instants separately.
        target = RecordingTracer()
        target.emit("warmup", "t", 0.0, 1.0)  # consumes id 1
        target.merge(_shipped(self._worker_tracer()))
        assert [s.span_id for s in target.spans] == [1, 2, 4]
        assert [s.span_id for s in target.instants] == [3]
        # The target's counter continues past the claimed ids.
        target.emit("after", "t", 2.0, 3.0)
        assert target.spans[-1].span_id == 5

    def test_merge_appends_commands_and_scopes(self):
        target = RecordingTracer()
        target.merge(_shipped(self._worker_tracer()))
        assert target.commands == ["cmd"]
        assert all(s.scope == "cell" for s in target.spans)

    def test_fragment_is_picklable(self):
        fragment = self._worker_tracer()
        clone = _shipped(fragment)
        assert clone.spans == fragment.spans
        assert clone.instants == fragment.instants

    def test_pickled_tracer_continues_its_ids(self):
        clone = _shipped(self._worker_tracer())
        clone.emit("next", "t", 20.0, 21.0)
        assert clone.spans[-1].span_id == 4
