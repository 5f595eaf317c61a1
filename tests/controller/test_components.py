"""PHY command-cost, planner, and hint-store tests."""

import pytest

from repro.controller import (
    AccessPlanner,
    MemoryRequest,
    Op,
    PramSubsystem,
    WriteHintStore,
)
from repro.pram import PramAddress, PramGeometry
from repro.sim import Simulator
from repro.telemetry.metrics import MetricsRegistry, use_metrics
from repro.telemetry.tracer import RecordingTracer, use_tracer


def _read_command_spans():
    """Bus command spans of a cold read and an RAB hit, and the tCK."""
    tracer = RecordingTracer()
    with use_tracer(tracer):
        subsystem = PramSubsystem(Simulator())
    # Rows 0 and 1 of one partition share their upper row address: the
    # first read ships a pre-active and an activate packet, the second
    # (an RAB hit) the activate alone.
    compose = subsystem.address_map.compose
    addresses = [compose(PramAddress(0, 0, 0, row, 0)) for row in (0, 1)]
    subsystem.run_stream([MemoryRequest(Op.READ, address, 32)
                          for address in addresses], mode="closed")
    spans = [span.end_ns - span.start_ns for span in tracer.spans
             if span.name == "cmd"]
    return spans, subsystem.params.tck_ns


class TestPhy:
    """The PHY reduces to the channel's cost of one tCK per command packet."""

    def test_clock_matches_400mhz(self):
        spans, tck = _read_command_spans()
        assert tck == 2.5
        assert spans[-1] == 2.5  # one packet, one 400 MHz cycle

    def test_command_cost_per_packet(self):
        spans, tck = _read_command_spans()
        assert spans == [2 * tck, tck]


class TestAccessPlanner:
    def test_single_row_request_is_one_chunk(self):
        planner = AccessPlanner()
        chunks = planner.plan(MemoryRequest(Op.READ, 0, 32))
        assert len(chunks) == 1
        assert chunks[0].size == 32

    def test_512_byte_request_decomposes_to_16_rows(self):
        planner = AccessPlanner()
        chunks = planner.plan(MemoryRequest(Op.READ, 0, 512))
        assert len(chunks) == 16
        assert all(c.size == 32 for c in chunks)

    def test_buffer_ids_rotate_round_robin_per_module(self):
        planner = AccessPlanner()
        # Two successive requests to the same module rotate its pairs.
        first = planner.plan(MemoryRequest(Op.READ, 0, 32))
        second = planner.plan(MemoryRequest(Op.READ, 0, 32))
        third = planner.plan(MemoryRequest(Op.READ, 0, 32))
        assert [c[0].buffer_id for c in (first, second, third)] == [0, 1, 2]

    def test_buffer_ids_independent_across_modules(self):
        planner = AccessPlanner()
        chunks = planner.plan(MemoryRequest(Op.READ, 0, 128))
        # 128 B spans modules 0..3, each using its own buffer 0.
        assert [c.buffer_id for c in chunks] == [0, 0, 0, 0]

    def test_write_chunks_carry_payload_slices(self):
        planner = AccessPlanner()
        payload = bytes(range(64))
        chunks = planner.plan(MemoryRequest(Op.WRITE, 0, 64, data=payload))
        assert chunks[0].payload == payload[:32]
        assert chunks[1].payload == payload[32:]
        assert chunks[0].is_write

    def test_read_chunk_payload_is_none(self):
        planner = AccessPlanner()
        chunks = planner.plan(MemoryRequest(Op.READ, 0, 32))
        assert chunks[0].payload is None

    def test_chunks_by_channel_split(self):
        geo = PramGeometry()
        planner = AccessPlanner()
        # 480..511 is (ch0, m15); 512..543 is (ch1, m0).
        request = MemoryRequest(Op.READ, 480, 64)
        grouped = planner.chunks_by_channel(request)
        assert set(grouped) == {0, 1}
        assert len(grouped[0]) == 1
        assert len(grouped[1]) == 1

    def test_1kb_request_covers_both_channels_fully(self):
        geo = PramGeometry()
        planner = AccessPlanner()
        request = MemoryRequest(Op.READ, 0, 1024)
        grouped = planner.chunks_by_channel(request)
        assert len(grouped[0]) == geo.modules_per_channel
        assert len(grouped[1]) == geo.modules_per_channel


class TestWriteHintStore:
    def test_fifo_order(self):
        store = WriteHintStore()
        store.add(0, 32, registered_at=1.0)
        store.add(64, 32, registered_at=2.0)
        assert store.pop() == (0, 32, 1.0)
        assert store.pop() == (64, 32, 2.0)
        assert store.pop() is None

    def test_default_registration_time_is_unconstrained(self):
        store = WriteHintStore()
        store.add(0, 32)
        _, _, registered_at = store.pop()
        assert registered_at == float("inf")

    def test_counters(self):
        store = WriteHintStore()
        store.add(0, 32)
        store.pop()
        assert store.registered == 1
        assert store.consumed == 1
        assert len(store) == 0

    def test_validation(self):
        store = WriteHintStore()
        with pytest.raises(ValueError):
            store.add(0, 0)
        with pytest.raises(ValueError):
            store.add(-1, 32)

    def test_a_region_counts_its_rows(self):
        store = WriteHintStore()
        store.add(16, 1024, registered_at=1.0, rows=17)
        store.add(4096, 64, registered_at=2.0, rows=2)
        assert (store.registered, len(store), store.depth()) == (19, 19, 19.0)
        assert store.pop() == (16, 1024, 1.0)
        assert (store.consumed, len(store), store.depth()) == (17, 2, 2.0)
        store.add(8192, 32, registered_at=3.0)
        assert store.pop() == (4096, 64, 2.0)
        assert store.pop() == (8192, 32, 3.0)
        assert store.pop() is None
        assert (store.registered, store.consumed) == (20, 20)
        assert (len(store), store.peak_depth) == (0, 19)

    def test_region_metrics_read_as_per_row_adds(self):
        # One region of three rows and one of a single row register,
        # drain and peak exactly as four one-row hints.
        def metrics_of(hints):
            registry = MetricsRegistry()
            with use_metrics(registry):
                store = WriteHintStore()
            for hint in hints:
                store.add(*hint)
            while store.pop() is not None:
                pass
            counters = [registry.counter(path)
                        for path in ("sched.hints.registered",
                                     "sched.hints.consumed")]
            return ([(counter.value, counter.events) for counter in counters],
                    registry.snapshot("sched.hints.*"))

        regions = metrics_of([(0, 96, 1.0, 3), (512, 32, 1.0, 1)])
        rows = metrics_of([(0, 32, 1.0), (32, 32, 1.0), (64, 32, 1.0),
                           (512, 32, 1.0)])
        assert regions == rows
        assert regions[0] == [(4.0, 4), (4.0, 4)]
        assert regions[1]["sched.hints.depth_peak"] == 4.0
