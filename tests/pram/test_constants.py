"""Table II parameters and geometry invariants."""

import pytest

from repro.pram import (
    PRAM_ERASE_LATENCY_NS,
    PRAM_RESET_ONLY_LATENCY_NS,
    PRAM_WRITE_OVERWRITE_NS,
    PRAM_WRITE_PRISTINE_NS,
    PramGeometry,
    PramTimingParams,
)


class TestTimingParams:
    def test_table2_defaults(self):
        params = PramTimingParams()
        assert params.read_latency_cycles == 6
        assert params.write_latency_cycles == 3
        assert params.tck_ns == 2.5
        assert params.trp_cycles == 3
        assert params.trcd_ns == 80.0
        assert params.twr_ns == 15.0

    def test_cycle_to_ns_conversion(self):
        params = PramTimingParams()
        assert params.rl_ns == 15.0       # 6 * 2.5
        assert params.wl_ns == 7.5        # 3 * 2.5
        assert params.trp_ns == 7.5       # 3 * 2.5
        assert params.tburst_ns == 40.0   # BL16 * 2.5

    def test_write_asymmetry(self):
        # Section VI: write ~10us, overwrites need an extra 8us.
        assert PRAM_WRITE_PRISTINE_NS == 10_000.0
        assert PRAM_WRITE_OVERWRITE_NS == 18_000.0
        assert PRAM_RESET_ONLY_LATENCY_NS == 8_000.0

    def test_erase_is_about_3000x_an_overwrite(self):
        ratio = PRAM_ERASE_LATENCY_NS / PRAM_WRITE_OVERWRITE_NS
        assert 3_000 <= ratio <= 3_500

    def test_burst_length_validation(self):
        for valid in (4, 8, 16):
            PramTimingParams(burst_length=valid)
        with pytest.raises(ValueError):
            PramTimingParams(burst_length=5)

    def test_tck_must_be_positive(self):
        with pytest.raises(ValueError):
            PramTimingParams(tck_ns=0.0)


class TestGeometry:
    def test_section_2a_defaults(self):
        geo = PramGeometry()
        assert geo.channels == 2
        assert geo.modules_per_channel == 16
        assert geo.partitions_per_bank == 16
        assert geo.tiles_per_partition == 64
        assert geo.bitlines_per_tile == 2048
        assert geo.wordlines_per_tile == 4096
        assert geo.rab_count == 4
        assert geo.rdb_count == 4
        assert geo.row_bytes == 32

    def test_partition_capacity(self):
        geo = PramGeometry()
        # 64 tiles * 2048 BL * 4096 WL bits = 64 MiB
        assert geo.partition_bytes == 64 * 1024 * 1024

    def test_module_and_total_capacity(self):
        geo = PramGeometry()
        assert geo.module_bytes == 1024 * 1024 * 1024        # 1 GiB
        assert geo.total_bytes == 32 * 1024 * 1024 * 1024    # 32 GiB

    def test_rows_per_partition(self):
        geo = PramGeometry()
        assert geo.rows_per_partition == geo.partition_bytes // 32

    def test_row_address_split(self):
        geo = PramGeometry()
        assert geo.row_address_bits == 21  # 2M rows
        assert geo.upper_row_bits == geo.row_address_bits - geo.lower_row_bits

    def test_words_per_row(self):
        assert PramGeometry().words_per_row == 8

    def test_rejects_non_positive_fields(self):
        with pytest.raises(ValueError):
            PramGeometry(channels=0)

    def test_rejects_misaligned_word_size(self):
        with pytest.raises(ValueError):
            PramGeometry(row_bytes=32, word_bytes=5)

    @pytest.mark.parametrize("tiles, bitlines, wordlines", [
        (1, 8, 5),     # 40 bits: 5 bytes, not a whole 32-byte row
        (1, 8, 3),     # 24 bits: under one row
        (1, 96, 3),    # 288 bits: one row and four bytes
        (3, 8, 1),     # 24 bits of three tiles
    ])
    def test_rejects_a_partition_of_partial_rows(self, tiles, bitlines,
                                                 wordlines):
        # A partial row would make the row count (floor division) and
        # the capacity (whole bytes) disagree.
        with pytest.raises(ValueError, match="whole, non-zero number of "
                                             "32-byte rows"):
            PramGeometry(tiles_per_partition=tiles, bitlines_per_tile=bitlines,
                         wordlines_per_tile=wordlines)

    def test_accepts_a_single_row_partition(self):
        geometry = PramGeometry(tiles_per_partition=1, bitlines_per_tile=256,
                                wordlines_per_tile=1)
        assert geometry.rows_per_partition == 1
        assert geometry.total_bytes == geometry.channels * (
            geometry.modules_per_channel * geometry.partitions_per_bank * 32)
