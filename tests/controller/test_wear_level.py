"""Start-gap wear-leveling tests (Section VII extension)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.controller import (
    MemoryRequest,
    Op,
    PramSubsystem,
    StartGapMapper,
)
from repro.controller.wear_level import GapMove
from repro.pram import PramGeometry
from repro.sim import Simulator

SMALL = PramGeometry(channels=2, modules_per_channel=2,
                     partitions_per_bank=4, tiles_per_partition=1,
                     bitlines_per_tile=256, wordlines_per_tile=256)


class TestMapperBasics:
    def test_initial_mapping_is_identity(self):
        mapper = StartGapMapper(lines=8)
        assert [mapper.map(l) for l in range(8)] == list(range(8))
        assert mapper.gap == 8

    def test_one_spare_physical_line(self):
        assert StartGapMapper(lines=8).physical_lines == 9

    def test_gap_move_after_interval(self):
        mapper = StartGapMapper(lines=8, gap_write_interval=2)
        assert mapper.record_write() is None
        move = mapper.record_write()
        assert move == GapMove(source=7, destination=8)
        assert mapper.gap == 7

    def test_mapping_skips_the_gap(self):
        mapper = StartGapMapper(lines=4, gap_write_interval=1)
        mapper.record_write()  # gap 4 -> 3 (line 3 copied to 4)
        # Logical 3 must now read from physical 4.
        assert mapper.map(3) == 4
        assert mapper.map(0) == 0

    def test_wrap_advances_start(self):
        mapper = StartGapMapper(lines=4, gap_write_interval=1)
        for _ in range(4):
            mapper.record_write()
        assert mapper.gap == 0
        move = mapper.record_write()  # wrap
        assert move == GapMove(source=4, destination=0)
        assert mapper.gap == 4
        assert mapper.start == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            StartGapMapper(0)
        with pytest.raises(ValueError):
            StartGapMapper(4, gap_write_interval=0)
        with pytest.raises(ValueError):
            StartGapMapper(4).map(4)

    def test_endurance_spread_metric(self):
        mapper = StartGapMapper(4)
        assert mapper.endurance_spread([5, 5, 5, 5]) == 1.0
        assert mapper.endurance_spread([10, 5, 5]) > 1.0
        assert mapper.endurance_spread([]) == 1.0


@given(st.integers(min_value=2, max_value=64),
       st.integers(min_value=0, max_value=400))
@settings(max_examples=60)
def test_mapping_stays_a_bijection_property(lines, moves):
    """After any number of gap moves, logical->physical is injective
    and never lands on the current gap line."""
    mapper = StartGapMapper(lines, gap_write_interval=1)
    for _ in range(moves):
        mapper.record_write()
    physical = [mapper.map(l) for l in range(lines)]
    assert len(set(physical)) == lines
    assert mapper.gap not in physical
    assert all(0 <= p <= lines for p in physical)


@given(st.integers(min_value=2, max_value=32))
@settings(max_examples=30)
def test_full_rotation_returns_to_identity_property(lines):
    """lines+... moves per cycle; after lines full cycles the start
    register wraps back to zero."""
    mapper = StartGapMapper(lines, gap_write_interval=1)
    for _ in range(lines * (lines + 1)):
        mapper.record_write()
    assert mapper.start == 0
    assert mapper.gap == lines


class TestSubsystemIntegration:
    def make(self, interval=4):
        sim = Simulator()
        subsystem = PramSubsystem(sim, geometry=SMALL,
                                  wear_leveling=True,
                                  gap_write_interval=interval)
        return sim, subsystem

    def run_writes(self, sim, subsystem, count, address=0):
        payloads = [bytes([i % 255 + 1]) * 32 for i in range(count)]

        def driver():
            for payload in payloads:
                yield sim.process(subsystem.write(address, payload))

        sim.process(driver())
        sim.run()
        return payloads

    def test_data_correct_across_gap_moves(self):
        sim, subsystem = self.make(interval=2)
        payloads = self.run_writes(sim, subsystem, 12)
        assert subsystem.inspect(0, 32) == payloads[-1]
        moves = sum(ch.gap_moves for ch in subsystem.channels)
        assert moves >= 4

    def test_other_rows_survive_gap_moves(self):
        sim, subsystem = self.make(interval=2)
        subsystem.preload(1024, b"\xCD" * 32)  # partition 1 neighbour

        def driver():
            for i in range(10):
                yield sim.process(subsystem.write(0, bytes([i + 1]) * 32))
            data = yield from subsystem.read(1024, 32)
            assert data == b"\xCD" * 32

        sim.process(driver())
        sim.run()

    def test_hammered_row_spreads_over_physical_lines(self):
        sim, subsystem = self.make(interval=2)
        self.run_writes(sim, subsystem, 30)
        # The hammered logical row 0 of (ch0, m0, p0) migrated: more
        # than one physical row absorbed programs.
        module = subsystem.modules[0][0]
        tracker = module.cell_tracker(0)
        written_rows = set(tracker.writes_per_row())
        assert len(written_rows) > 1

    def test_pre_reset_follows_the_remapped_row(self):
        # Pre-RESET hints rebind their row address through start-gap.
        sim, subsystem = self.make(interval=2)
        self.run_writes(sim, subsystem, 5)
        subsystem.register_write_hint(0, 32)
        done = sim.process(subsystem.drain_hints())
        sim.run()
        assert done.ok, done.value
        assert sum(ch.pre_resets_issued for ch in subsystem.channels) == 1

    def test_wear_leveling_off_keeps_writes_in_place(self):
        sim = Simulator()
        subsystem = PramSubsystem(sim, geometry=SMALL,
                                  wear_leveling=False)

        def driver():
            for i in range(10):
                yield sim.process(subsystem.write(0, bytes([i + 1]) * 32))

        sim.process(driver())
        sim.run()
        module = subsystem.modules[0][0]
        tracker = module.cell_tracker(0)
        written_rows = set(tracker.writes_per_row())
        assert written_rows == {0}

    def test_overhead_is_bounded(self):
        def total_time(wear_leveling):
            sim = Simulator()
            subsystem = PramSubsystem(sim, geometry=SMALL,
                                      wear_leveling=wear_leveling,
                                      gap_write_interval=100)
            self.run_writes(sim, subsystem, 50)
            return sim.now

        baseline = total_time(False)
        leveled = total_time(True)
        # With psi=100, amortized overhead stays within a few percent.
        assert leveled <= baseline * 1.05
