"""Write-pausing tests (the [66]-style optional controller feature)."""

import pytest

from repro.controller import MemoryRequest, Op, PramSubsystem
from repro.pram import PramGeometry, PramModule
from repro.sim import Simulator

SMALL = PramGeometry(channels=1, modules_per_channel=1,
                     partitions_per_bank=4, tiles_per_partition=1,
                     bitlines_per_tile=256, wordlines_per_tile=256)


class TestModulePauseResume:
    def test_pause_frees_the_partition(self):
        module = PramModule()
        t = module.stage_program(0.0, 0, 0, 0, bytes(32))
        module.execute_program(t)
        assert module.program_in_flight(0, t + 100.0)
        assert module.pause_program(0, t + 100.0,
                                    resume_penalty_ns=1_000) is True
        assert module.partition_ready_at(0) == t + 100.0
        assert not module.program_in_flight(0, t + 100.0)

    def test_resume_restores_remaining_plus_penalty(self):
        module = PramModule()
        t = module.stage_program(0.0, 0, 0, 0, bytes(32))
        finish = module.execute_program(t)
        pause_at = t + 2_000.0
        remaining = (finish - module.params.twr_ns) - pause_at
        module.pause_program(0, pause_at, resume_penalty_ns=1_000)
        resume_at = pause_at + 200.0
        new_finish = module.resume_program(0, resume_at)
        assert new_finish == pytest.approx(
            resume_at + remaining + 1_000.0)

    def test_pause_without_program_is_noop(self):
        module = PramModule()
        assert module.pause_program(0, 0.0, 1_000) is False
        assert module.resume_program(0, 0.0) == 0.0

    def test_reads_are_not_pausable(self):
        module = PramModule()
        module.pre_active(0.0, 0, 0)
        module.activate(10.0, 0, 0, 0)  # occupies, but not a program
        assert module.program_in_flight(0, 50.0) is False


def read_latency_during_write(write_pausing: bool) -> float:
    """A read to the same partition lands mid-program; measure it."""
    sim = Simulator()
    subsystem = PramSubsystem(sim, geometry=SMALL,
                              write_pausing=write_pausing)
    subsystem.preload(1024, b"\xEE" * 32)  # partition 1... same module
    write = MemoryRequest(Op.WRITE, 0, 32, data=b"\x11" * 32)
    read = MemoryRequest(Op.READ, 512, 32)  # same partition 0, row 1

    def driver():
        write_proc = sim.process(subsystem.submit(write))
        yield sim.timeout(2_000.0)  # land mid-program (~10 us long)
        yield sim.process(subsystem.submit(read))
        yield write_proc

    sim.process(driver())
    sim.run()
    return read.latency, write.latency


class TestSubsystemPausing:
    def test_pausing_slashes_read_latency_under_a_write(self):
        blocked, _ = read_latency_during_write(False)
        paused, _ = read_latency_during_write(True)
        # Without pausing the read waits out most of the 10 us program.
        assert blocked > 5_000.0
        # With pausing it is served at near-idle latency.
        assert paused < 1_000.0

    def test_pausing_extends_the_write(self):
        _, write_plain = read_latency_during_write(False)
        _, write_paused = read_latency_during_write(True)
        assert write_paused > write_plain

    def test_data_intact_after_pause(self):
        sim = Simulator()
        subsystem = PramSubsystem(sim, geometry=SMALL,
                                  write_pausing=True)
        write = MemoryRequest(Op.WRITE, 0, 32, data=b"\x77" * 32)
        read = MemoryRequest(Op.READ, 512, 32)

        def driver():
            write_proc = sim.process(subsystem.submit(write))
            yield sim.timeout(2_000.0)
            yield sim.process(subsystem.submit(read))
            yield write_proc

        sim.process(driver())
        sim.run()
        assert subsystem.inspect(0, 32) == b"\x77" * 32
        assert read.result == bytes(32)

    def test_pause_counter_visible(self):
        sim = Simulator()
        subsystem = PramSubsystem(sim, geometry=SMALL,
                                  write_pausing=True)
        write = MemoryRequest(Op.WRITE, 0, 32, data=b"\x11" * 32)
        read = MemoryRequest(Op.READ, 512, 32)

        def driver():
            write_proc = sim.process(subsystem.submit(write))
            yield sim.timeout(2_000.0)
            yield sim.process(subsystem.submit(read))
            yield write_proc

        sim.process(driver())
        sim.run()
        assert subsystem.channels[0].pauses_issued == 1
