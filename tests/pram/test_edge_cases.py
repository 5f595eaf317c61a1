"""PRAM device edge cases: protocol edges, geometry extremes,
buffer-state interactions."""

import pytest

from repro.pram import (
    AddressError,
    AddressMap,
    PramGeometry,
    PramModule,
    ProtocolError,
)
from repro.pram.overlay_window import CMD_PROGRAM


class TestModuleProtocolEdges:
    def test_execute_without_stage_fails(self):
        module = PramModule()
        with pytest.raises(ProtocolError):
            module.execute_program(0.0)

    def test_stage_twice_then_single_execute(self):
        # Restaging before execute overwrites the pending program.
        module = PramModule()
        module.stage_program(0.0, 0, 0, 0, b"\x01" * 32)
        t = module.stage_program(10.0, 0, 1, 0, b"\x02" * 32)
        module.execute_program(t)
        assert module.peek(0, 1) == b"\x02" * 32
        assert module.peek(0, 0) == bytes(32)

    def test_program_spilling_past_partition_rejected(self):
        geo = PramGeometry(channels=1, modules_per_channel=1,
                           partitions_per_bank=2, tiles_per_partition=1,
                           bitlines_per_tile=64, wordlines_per_tile=64)
        module = PramModule(geometry=geo)
        last_row = geo.rows_per_partition - 1
        with pytest.raises(AddressError, match="runs past its"):
            module.stage_program(0.0, 0, last_row, 16, bytes(64))
        assert not module.window.busy

    def test_partition_ready_at_tracks_busy(self):
        module = PramModule()
        t = module.stage_program(0.0, 3, 0, 0, bytes(32))
        finish = module.execute_program(t)
        # Busy until just before tWR completes.
        assert module.partition_ready_at(3) == pytest.approx(
            finish - module.params.twr_ns)

    def test_last_program_time_updates(self):
        module = PramModule()
        assert module.last_program_time(0, 0) == float("-inf")
        t = module.stage_program(5.0, 0, 0, 0, bytes(32),
                                 command=CMD_PROGRAM)
        module.execute_program(t)
        assert module.last_program_time(0, 0) == t


class TestAddressMapEdges:
    def test_single_module_geometry(self):
        geo = PramGeometry(channels=1, modules_per_channel=1,
                           partitions_per_bank=1, tiles_per_partition=1,
                           bitlines_per_tile=64, wordlines_per_tile=64)
        address_map = AddressMap(geo)
        for flat in range(0, geo.total_bytes, geo.row_bytes):
            decomposed = address_map.decompose(flat)
            assert decomposed.channel == 0
            assert decomposed.module == 0
            assert decomposed.partition == 0
        assert address_map.compose(
            address_map.decompose(geo.total_bytes - 1)) == (
            geo.total_bytes - 1)

    def test_upper_row_bits_can_be_zero(self):
        geo = PramGeometry(channels=1, modules_per_channel=1,
                           partitions_per_bank=1, tiles_per_partition=1,
                           bitlines_per_tile=64, wordlines_per_tile=64,
                           lower_row_bits=7)
        # 16 rows fit entirely in the lower bits.
        assert geo.rows_per_partition == 16
        address_map = AddressMap(geo)
        upper, lower = address_map.split_row(15)
        assert upper == 0
        assert address_map.join_row(upper, lower) == 15
