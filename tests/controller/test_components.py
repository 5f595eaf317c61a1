"""PHY, initializer, datapath, planner, and hint-store tests."""

import pytest

from repro.controller import (
    AccessPlanner,
    Datapath,
    Initializer,
    MemoryRequest,
    Op,
    PramPhy,
    WriteHintStore,
)
from repro.pram import PramGeometry, PramModule


class TestPhy:
    def test_clock_matches_400mhz(self):
        assert PramPhy().clock_ns == 2.5

    def test_command_cost_per_packet(self):
        phy = PramPhy()
        assert phy.command_cost(2) == 5.0

    def test_register_write_cost(self):
        phy = PramPhy()
        assert phy.register_write_cost() == 2.5

    def test_negative_packets_rejected(self):
        with pytest.raises(ValueError):
            PramPhy().command_cost(-1)


class TestInitializer:
    def test_boot_invalidate_buffers_and_sets_owba(self):
        module = PramModule()
        module.buffers.load_rab(0, 5)
        init = Initializer(overlay_window_base=0x4000)
        latency = init.boot([module])
        assert init.booted
        assert latency > 0
        assert module.buffers.find_rab(5) is None
        assert module.window.base_address == 0x4000

    def test_boot_scales_with_module_count(self):
        modules_2 = [PramModule() for _ in range(2)]
        modules_8 = [PramModule() for _ in range(8)]
        assert Initializer().boot(modules_8) > Initializer().boot(modules_2)

    def test_boot_requires_modules(self):
        with pytest.raises(ValueError):
            Initializer().boot([])


class TestDatapath:
    def test_stage_store_and_load(self):
        dp = Datapath()
        dp.stage_store(b"\x01" * 32)
        assert dp.store_register == b"\x01" * 32
        assert dp.stage_load(b"\x02" * 16) == b"\x02" * 16
        assert dp.load_register == b"\x02" * 16 + bytes(16)

    def test_operand_size_limits(self):
        dp = Datapath()
        with pytest.raises(ValueError):
            dp.stage_store(b"")
        with pytest.raises(ValueError):
            dp.stage_store(bytes(33))


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
