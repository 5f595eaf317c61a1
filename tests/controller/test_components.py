"""PHY command-cost, channel row-walk, and hint-store tests."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.controller import (
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


def _walks(subsystem, request):
    """Each channel's walk of ``request``: (module, offset, size, pair)."""
    return [[(address.module, offset, size, planned)
             for address, offset, size, planned in channel.walk_rows(request)]
            for channel in subsystem.channels]


def _chunks_started(subsystem, request):
    """Chunks each channel runs for ``request``, run to completion."""
    subsystem.run_stream([request])
    return [channel.chunks_read + channel.chunks_written
            for channel in subsystem.channels]


class TestChannelWalk:
    """Each channel walks its own rows of a request and rotates each of
    its modules' RAB/RDB pairs."""

    def test_single_row_request_is_one_chunk(self):
        subsystem = PramSubsystem(Simulator())
        assert _walks(subsystem, MemoryRequest(Op.READ, 0, 32)) == [
            [(0, 0, 32, 0)], []]

    def test_512_byte_request_is_16_rows_on_one_channel(self):
        subsystem = PramSubsystem(Simulator())
        request = MemoryRequest(Op.READ, 0, 512)
        assert _walks(subsystem, request) == [
            [(module, 32 * module, 32, 0) for module in range(16)], []]
        assert _chunks_started(subsystem, request) == [16, 0]

    def test_pairs_of_one_module_rotate_across_requests(self):
        subsystem = PramSubsystem(Simulator())
        walks = [_walks(subsystem, MemoryRequest(Op.READ, 0, 32))
                 for _ in range(3)]
        assert [walk[0][0][3] for walk in walks] == [0, 1, 2]

    def test_modules_rotate_independently(self):
        subsystem = PramSubsystem(Simulator())
        # 128 B spans modules 0..3, each on its own first pair; then
        # module 1 alone moves to its second.
        first = _walks(subsystem, MemoryRequest(Op.READ, 0, 128))[0]
        assert [(module, pair) for module, _, _, pair in first] == [
            (0, 0), (1, 0), (2, 0), (3, 0)]
        second = _walks(subsystem, MemoryRequest(Op.READ, 32, 64))[0]
        assert [(module, pair) for module, _, _, pair in second] == [
            (1, 1), (2, 1)]

    def test_write_slices_land_on_their_rows(self):
        subsystem = PramSubsystem(Simulator())
        payload = bytes(range(64))
        subsystem.run_stream([MemoryRequest(Op.WRITE, 16, 64, data=payload)])
        modules = subsystem.modules[0]
        assert modules[0].peek(0, 0) == bytes(16) + payload[:16]
        assert modules[1].peek(0, 0) == payload[16:48]
        assert modules[2].peek(0, 0) == payload[48:] + bytes(16)
        read = MemoryRequest(Op.READ, 16, 64)
        subsystem.run_stream([read])
        assert read.result == payload

    def test_a_request_across_the_stripe_runs_one_chunk_per_channel(self):
        # 480..511 is (ch0, m15); 512..543 is (ch1, m0).
        subsystem = PramSubsystem(Simulator())
        request = MemoryRequest(Op.READ, 480, 64)
        assert _walks(subsystem, request) == [
            [(15, 0, 32, 0)], [(0, 32, 32, 0)]]
        assert _chunks_started(subsystem, request) == [1, 1]

    def test_1kb_request_covers_both_channels_fully(self):
        subsystem = PramSubsystem(Simulator())
        request = MemoryRequest(Op.READ, 0, 1024)
        walks = _walks(subsystem, request)
        assert [[module for module, _, _, _ in walk] for walk in walks] == [
            list(range(16)), list(range(16))]
        assert _chunks_started(subsystem, request) == [16, 16]


@st.composite
def _geometries_and_requests(draw):
    geometry = PramGeometry(
        channels=draw(st.integers(min_value=1, max_value=3)),
        modules_per_channel=draw(st.integers(min_value=1, max_value=4)),
        partitions_per_bank=draw(st.integers(min_value=1, max_value=3)),
        tiles_per_partition=1, bitlines_per_tile=256,
        wordlines_per_tile=draw(st.integers(min_value=1, max_value=4)),
        row_bytes=draw(st.sampled_from([4, 8, 32])),
        rdb_count=draw(st.integers(min_value=1, max_value=4)))
    total = geometry.total_bytes
    requests = []
    for _ in range(draw(st.integers(min_value=1, max_value=6))):
        address = draw(st.integers(min_value=0, max_value=total - 1))
        size = draw(st.integers(min_value=1, max_value=total - address))
        requests.append(MemoryRequest(Op.READ, address, size))
    return geometry, requests


class TestChannelWalkReference:
    @given(_geometries_and_requests())
    @settings(max_examples=200, deadline=None)
    def test_equals_iter_rows_with_round_robin_pairs(self, drawn):
        # The reference: the whole region in stripe order, filtered by
        # channel, each module of each channel rotating through its
        # pairs in that order.
        geometry, requests = drawn
        subsystem = PramSubsystem(Simulator(), geometry=geometry)
        next_pair = {}
        for request in requests:
            expected = [[] for _ in range(geometry.channels)]
            for address, offset, size in subsystem.address_map.iter_rows(
                    request.address, request.size):
                key = (address.channel, address.module)
                planned = next_pair.get(key, 0)
                next_pair[key] = (planned + 1) % geometry.rdb_count
                expected[address.channel].append(
                    (address, offset, size, planned))
            assert [channel.walk_rows(request)
                    for channel in subsystem.channels] == expected


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
