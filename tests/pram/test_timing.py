"""Timing-model tests, anchored to Section VI's quoted latencies."""

import math
import random

import pytest

from repro.pram import PramTimingParams, TimingModel


@pytest.fixture
def timing():
    return TimingModel()


class TestPhases:
    def test_pre_active_is_trp(self, timing):
        assert timing.pre_active() == 7.5

    def test_activate_is_trcd(self, timing):
        assert timing.activate() == 80.0

    def test_read_preamble(self, timing):
        assert timing.read_preamble() == 15.0 + 2.5

    def test_write_preamble(self, timing):
        assert timing.write_preamble() == 7.5 + 0.75


class TestBurst:
    def test_one_burst_moves_32_bytes(self, timing):
        # BL16 on a 16-bit DDR dq bus = 32 bytes per burst.
        assert timing.burst(32) == 40.0
        assert timing.burst(1) == 40.0

    def test_larger_transfers_chain_bursts(self, timing):
        assert timing.burst(64) == 80.0
        assert timing.burst(33) == 80.0

    def test_bl4_burst(self):
        timing = TimingModel(PramTimingParams(burst_length=4))
        # BL4 moves 8 bytes in 4 cycles.
        assert timing.burst(8) == 10.0
        assert timing.burst(32) == 40.0

    def test_non_positive_size_rejected(self, timing):
        with pytest.raises(ValueError):
            timing.burst(0)


class TestArrayOperations:
    def test_program_latency_asymmetry(self, timing):
        assert timing.array_program(needs_reset=False) == 10_000.0
        assert timing.array_program(needs_reset=True) == 18_000.0

    def test_reset_only_is_the_difference(self, timing):
        assert timing.array_reset_only() == 8_000.0

    def test_erase(self, timing):
        assert timing.array_erase() == 60_000_000.0


class TestCompositeLatencies:
    def test_read_row_is_about_100ns(self, timing):
        # Section VI: "the read latency is around 100 ns, including
        # three-phase addressing (RL, tRCD, tRP and tBURST)".
        total = timing.read_row(32)
        assert total == pytest.approx(7.5 + 80.0 + 17.5 + 40.0)
        assert 100.0 <= total <= 160.0

    def test_phase_skipping_reduces_read(self, timing):
        full = timing.read_row(32)
        no_preactive = timing.read_row(32, skip_pre_active=True)
        rdb_hit = timing.read_row(32, skip_pre_active=True,
                                  skip_activate=True)
        assert no_preactive == full - 7.5
        assert rdb_hit == no_preactive - 80.0
        # An RDB hit is a pure buffer read: preamble + burst only.
        assert rdb_hit == pytest.approx(57.5)

    def test_write_row_dominated_by_cell_program(self, timing):
        pristine = timing.write_row(32, needs_reset=False)
        overwrite = timing.write_row(32, needs_reset=True)
        assert overwrite - pristine == 8_000.0
        assert pristine > 10_000.0
        assert pristine < 10_500.0

    def test_write_pre_active_skip(self, timing):
        full = timing.write_row(32, needs_reset=False)
        skipped = timing.write_row(32, needs_reset=False,
                                   skip_pre_active=True)
        assert full - skipped == 7.5

    def test_selective_erase_shortens_critical_path_by_44_percent(
            self, timing):
        # Abstract: "the proposed selective erasing approach shortens
        # the overall PRAM write latency by 44%".
        overwrite = timing.write_row(32, needs_reset=True)
        after_pre_reset = timing.write_row(32, needs_reset=False)
        reduction = 1.0 - after_pre_reset / overwrite
        assert 0.40 <= reduction <= 0.48

    def test_transfer_only_window(self, timing):
        assert timing.transfer_only(32) == pytest.approx(57.5)


@pytest.mark.parametrize("params", [
    PramTimingParams(),
    PramTimingParams(burst_length=4, tck_ns=1.875, read_latency_cycles=5,
                     write_latency_cycles=2, trp_cycles=4, trcd_ns=72.5,
                     tdqsck_ns=5.5, tdqss_ns=1.25, twr_ns=12.0),
    PramTimingParams(burst_length=8, tck_ns=0.3),
], ids=["table2", "bl4", "bl8"])
def test_stored_phases_and_memoized_bursts_match_the_expressions(params):
    timing = TimingModel(params)
    stored = (timing.pre_active_ns, timing.activate_ns,
              timing.read_preamble_ns, timing.write_preamble_ns,
              timing.write_recovery_ns)
    expected = (params.trp_ns, params.trcd_ns,
                params.rl_ns + params.tdqsck_ns,
                params.wl_ns + params.tdqss_ns, params.twr_ns)
    assert stored == expected
    assert (timing.pre_active(), timing.activate(), timing.read_preamble(),
            timing.write_preamble(), timing.write_recovery()) == expected
    sizes = list(range(1, 4097))
    random.Random(7).shuffle(sizes)
    for _ in range(2):  # computed, then served from the memo
        for size in sizes:
            assert timing.burst(size) == (
                math.ceil(size / (2 * params.burst_length))
                * params.tburst_ns)
    for size in (0, -32):
        with pytest.raises(ValueError):
            timing.burst(size)
