"""Integration tests: the full PRAM subsystem under each policy."""

import pytest

from repro.controller import MemoryRequest, Op, PramSubsystem, SchedulerPolicy
from repro.controller.firmware import FirmwareModel
from repro.controller.request import RequestStatus
from repro.pram import AddressError, PramGeometry
from repro.sim import Simulator

#: Small geometry keeps tests fast while preserving multi-everything.
SMALL = PramGeometry(channels=2, modules_per_channel=2,
                     partitions_per_bank=4, tiles_per_partition=1,
                     bitlines_per_tile=256, wordlines_per_tile=256)


def make_subsystem(policy=SchedulerPolicy.FINAL, **kwargs):
    sim = Simulator()
    subsystem = PramSubsystem(sim, geometry=SMALL, policy=policy, **kwargs)
    return sim, subsystem


def run_requests(sim, subsystem, requests):
    """Drive requests concurrently; return completion time."""

    def driver():
        pending = [sim.process(subsystem.submit(r)) for r in requests]
        yield sim.all_of(pending)

    sim.process(driver())
    sim.run()
    return sim.now


class TestFunctionalCorrectness:
    def test_write_then_read_roundtrip(self):
        sim, subsystem = make_subsystem()
        payload = bytes(range(64))

        def driver():
            yield sim.process(subsystem.write(0x40, payload))
            data = yield sim.process(subsystem.read(0x40, 64))
            assert data == payload

        sim.process(driver())
        sim.run()
        assert subsystem.requests_completed == 2

    def test_preload_then_timed_read(self):
        sim, subsystem = make_subsystem()
        subsystem.preload(0x100, b"\xAB" * 96)

        def driver():
            data = yield sim.process(subsystem.read(0x100, 96))
            assert data == b"\xAB" * 96

        sim.process(driver())
        sim.run()

    def test_preload_partial_rows_and_inspect(self):
        _, subsystem = make_subsystem()
        subsystem.preload(10, b"xyz")
        assert subsystem.inspect(10, 3) == b"xyz"
        assert subsystem.inspect(8, 2) == bytes(2)

    def test_unwritten_memory_reads_zero(self):
        sim, subsystem = make_subsystem()

        def driver():
            data = yield sim.process(subsystem.read(0x200, 32))
            assert data == bytes(32)

        sim.process(driver())
        sim.run()

    def test_cross_channel_request(self):
        sim, subsystem = make_subsystem()
        # SMALL stripes 32 B per module, 64 B per channel: a 64-byte
        # request at 32 spans (ch0, m1) and (ch1, m0).
        boundary = 32
        payload = bytes(range(64))

        def driver():
            yield sim.process(subsystem.write(boundary, payload))
            data = yield sim.process(subsystem.read(boundary, 64))
            assert data == payload

        sim.process(driver())
        sim.run()


class TestTiming:
    def test_single_read_latency_near_device_read(self):
        sim, subsystem = make_subsystem()
        request = MemoryRequest(Op.READ, 0, 32)
        run_requests(sim, subsystem, [request])
        assert 100.0 <= request.latency <= 200.0

    def test_single_write_latency_is_program_dominated(self):
        sim, subsystem = make_subsystem()
        request = MemoryRequest(Op.WRITE, 0, 32, data=bytes(32))
        run_requests(sim, subsystem, [request])
        assert 10_000.0 <= request.latency <= 11_000.0

    def test_overwrite_latency_pays_reset(self):
        sim, subsystem = make_subsystem(policy=SchedulerPolicy.BARE_METAL)
        subsystem.preload(0, b"\x11" * 32)
        request = MemoryRequest(Op.WRITE, 0, 32, data=b"\x22" * 32)
        run_requests(sim, subsystem, [request])
        assert request.latency >= 18_000.0


#: Distance between successive partitions of module 0 in SMALL.
PARTITION_STRIDE = (SMALL.row_bytes * SMALL.modules_per_channel
                    * SMALL.channels)


def partition_strided_reads(count):
    """Reads hitting distinct partitions of module 0, channel 0."""
    return [MemoryRequest(Op.READ, i * PARTITION_STRIDE, 32)
            for i in range(count)]


def sequential_reads(count):
    """Reads striding across modules (a sequential access stream)."""
    return [MemoryRequest(Op.READ, i * SMALL.row_bytes, 32)
            for i in range(count)]


class TestPolicies:
    def test_interleaving_beats_bare_metal_on_partition_parallel_reads(self):
        sim_a, sub_a = make_subsystem(SchedulerPolicy.BARE_METAL)
        time_a = run_requests(sim_a, sub_a, partition_strided_reads(4))
        sim_b, sub_b = make_subsystem(SchedulerPolicy.INTERLEAVING)
        time_b = run_requests(sim_b, sub_b, partition_strided_reads(4))
        assert time_b < time_a

    def test_interleaving_overlap_hides_a_meaningful_fraction(self):
        # Abstract: interleaving hides access latency behind transfer
        # time "by 40%"; our model should show a comparable gain on
        # partition-parallel reads.
        sim_a, sub_a = make_subsystem(SchedulerPolicy.BARE_METAL)
        time_a = run_requests(sim_a, sub_a, partition_strided_reads(4))
        sim_b, sub_b = make_subsystem(SchedulerPolicy.INTERLEAVING)
        time_b = run_requests(sim_b, sub_b, partition_strided_reads(4))
        assert 1.0 - time_b / time_a >= 0.25

    def test_same_module_writes_see_no_interleaving_benefit(self):
        # Figure 13: write-heavy workloads get ~zero benefit because
        # long programs serialize at each module's overlay window no
        # matter how the scheduler orders them.
        def same_module_writes():
            return [MemoryRequest(Op.WRITE, i * PARTITION_STRIDE, 32,
                                  data=bytes(32))
                    for i in range(4)]

        sim_a, sub_a = make_subsystem(SchedulerPolicy.BARE_METAL)
        time_a = run_requests(sim_a, sub_a, same_module_writes())
        sim_b, sub_b = make_subsystem(SchedulerPolicy.INTERLEAVING)
        time_b = run_requests(sim_b, sub_b, same_module_writes())
        assert time_b == pytest.approx(time_a, rel=0.05)

    def test_selective_erase_speeds_up_announced_overwrites(self):
        def run(policy):
            sim, subsystem = make_subsystem(policy)
            subsystem.preload(0, b"\x33" * 32)  # target already programmed
            subsystem.register_write_hint(0, 32)

            def driver():
                yield sim.process(subsystem.drain_hints())
                request = MemoryRequest(Op.WRITE, 0, 32, data=b"\x44" * 32)
                start = sim.now
                yield sim.process(subsystem.submit(request))
                return sim.now - start

            proc = sim.process(driver())
            sim.run()
            return proc.value

        bare = run(SchedulerPolicy.BARE_METAL)
        selective = run(SchedulerPolicy.SELECTIVE_ERASE)
        # Section V-A: selective erasing reduces overwrite latency ~44-55%.
        assert 0.35 <= 1.0 - selective / bare <= 0.60

    def test_selective_erase_preserves_data_correctness(self):
        sim, subsystem = make_subsystem(SchedulerPolicy.FINAL)
        subsystem.preload(0, b"\x55" * 32)
        subsystem.register_write_hint(0, 32)

        def driver():
            yield sim.process(subsystem.drain_hints())
            yield sim.process(subsystem.write(0, b"\x66" * 32))
            data = yield sim.process(subsystem.read(0, 32))
            assert data == b"\x66" * 32

        sim.process(driver())
        sim.run()

    def test_hints_are_noop_under_non_preresetting_policies(self):
        sim, subsystem = make_subsystem(SchedulerPolicy.INTERLEAVING)
        subsystem.preload(0, b"\x33" * 32)
        subsystem.register_write_hint(0, 32)

        def driver():
            yield sim.process(subsystem.drain_hints())

        sim.process(driver())
        sim.run()
        assert subsystem.channels[0].pre_resets_issued == 0

    def test_pre_reset_skips_pristine_rows(self):
        sim, subsystem = make_subsystem(SchedulerPolicy.FINAL)
        subsystem.register_write_hint(0, 32)  # never written: pristine

        def driver():
            yield sim.process(subsystem.drain_hints())

        sim.process(driver())
        sim.run()
        assert subsystem.channels[0].pre_resets_issued == 0


class TestWriteHintRegistration:
    #: 1 KiB: two channels of two modules, two partitions of four rows.
    TINY = PramGeometry(channels=2, modules_per_channel=2,
                        partitions_per_bank=2, tiles_per_partition=1,
                        bitlines_per_tile=256, wordlines_per_tile=4)

    def test_each_owning_channel_queues_the_region_once(self):
        sim = Simulator()
        subsystem = PramSubsystem(sim, geometry=self.TINY)
        subsystem.register_write_hint(16, 1000)
        owned = [sum(1 for address, _, _ in
                     subsystem.address_map.iter_rows(16, 1000)
                     if address.channel == channel) for channel in (0, 1)]
        assert owned == [16, 16]
        for store, rows in zip(subsystem.hint_stores, owned):
            assert (store.registered, len(store)) == (rows, rows)
            assert store.pop() == (16, 1000, 0.0)
            assert store.pop() is None

    def test_a_refused_region_queues_nothing(self):
        sim = Simulator()
        subsystem = PramSubsystem(sim, geometry=self.TINY)
        subsystem.preload(896, b"\x11" * 128)
        subsystem.register_write_hint(-32, 0)  # empty: no error, no hint
        for address, size, message in (
                (960, 128, "address 0x400 beyond capacity 0x400"),
                (1024, 32, "address 0x400 beyond capacity 0x400"),
                (-32, 64, "negative address: -32"),
                (0, -1, "negative size: -1")):
            with pytest.raises(AddressError, match=message):
                subsystem.register_write_hint(address, size)
        assert [store.registered for store in subsystem.hint_stores] == [0, 0]
        assert [len(store) for store in subsystem.hint_stores] == [0, 0]
        sim.process(subsystem.drain_hints())
        sim.run()
        assert subsystem.operation_counts()["resets"] == 0
        assert subsystem.inspect(896, 128) == b"\x11" * 128


class TestPastCapacity:
    """A region that runs past the 1 KiB capacity changes nothing."""

    TINY = TestWriteHintRegistration.TINY

    def test_preload_refuses_before_any_row(self):
        subsystem = PramSubsystem(Simulator(), geometry=self.TINY)
        with pytest.raises(AddressError,
                           match="address 0x400 beyond capacity 0x400"):
            subsystem.preload(960, b"\x11" * 128)
        assert subsystem.inspect(960, 64) == bytes(64)

    @pytest.mark.parametrize("op", [Op.READ, Op.WRITE])
    def test_a_request_completes_failed(self, op):
        # The address fault is a device-model error: submit contains it
        # and the stream returns.
        subsystem = PramSubsystem(Simulator(), geometry=self.TINY)
        data = b"\x22" * 64 if op is Op.WRITE else None
        request = MemoryRequest(op, 1000, 64, data=data)
        subsystem.run_stream([request])
        assert request.status is RequestStatus.FAILED
        assert request.fault_permanent
        assert request.error == "AddressError: address 0x400 beyond capacity 0x400"
        assert request.result == (bytes(64) if op is Op.READ else b"")
        assert (subsystem.requests_completed, subsystem.requests_failed,
                subsystem.inflight) == (1, 1, 0)
        assert [channel.chunks_read + channel.chunks_written
                for channel in subsystem.channels] == [0, 0]
        assert subsystem.inspect(960, 64) == bytes(64)


class TestPhaseSkipping:
    def test_repeated_row_reads_hit_the_rdb(self):
        sim, subsystem = make_subsystem()
        requests = [MemoryRequest(Op.READ, 0, 32) for _ in range(3)]

        def driver():
            for request in requests:
                yield sim.process(subsystem.submit(request))

        sim.process(driver())
        sim.run()
        # First read does full three-phase; later ones skip both phases.
        assert requests[1].latency < requests[0].latency
        skips = subsystem.channels[0].phase_skips
        assert skips["activate"] >= 2

    def test_phase_skipping_can_be_disabled(self):
        sim, subsystem = make_subsystem(phase_skipping=False)
        requests = [MemoryRequest(Op.READ, 0, 32) for _ in range(3)]

        def driver():
            for request in requests:
                yield sim.process(subsystem.submit(request))

        sim.process(driver())
        sim.run()
        assert subsystem.channels[0].phase_skips["activate"] == 0
        assert requests[1].latency == pytest.approx(requests[2].latency)

    def test_rab_hit_skips_only_pre_active(self):
        sim, subsystem = make_subsystem()
        # Same module, same upper row, different lower rows -> RAB hit,
        # RDB miss.  Row stride in SMALL is 512 bytes.
        row_stride = PARTITION_STRIDE * SMALL.partitions_per_bank
        requests = [MemoryRequest(Op.READ, 0, 32),
                    MemoryRequest(Op.READ, row_stride, 32)]

        def driver():
            for request in requests:
                yield sim.process(subsystem.submit(request))

        sim.process(driver())
        sim.run()
        skips = subsystem.channels[0].phase_skips
        assert skips["pre_active"] >= 1


class TestFirmwareBaseline:
    def test_firmware_adds_serialized_latency(self):
        sim_hw, sub_hw = make_subsystem()
        hw_time = run_requests(sim_hw, sub_hw, sequential_reads(8))

        sim_fw = Simulator()
        sub_fw = PramSubsystem(
            sim_fw, geometry=SMALL,
            firmware=FirmwareModel(sim_fw))
        fw_time = run_requests(sim_fw, sub_fw, sequential_reads(8))
        assert fw_time > hw_time * 2

    def test_firmware_counts_requests(self):
        sim = Simulator()
        firmware = FirmwareModel(sim)
        subsystem = PramSubsystem(sim, geometry=SMALL, firmware=firmware)
        run_requests(sim, subsystem, sequential_reads(4))
        assert firmware.requests_processed == 4

    def test_firmware_validation(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            FirmwareModel(sim, cores=0)
        with pytest.raises(ValueError):
            FirmwareModel(sim, clock_ghz=0.0)


class TestStatistics:
    def test_operation_counts(self):
        sim, subsystem = make_subsystem()
        requests = [
            MemoryRequest(Op.WRITE, 0, 32, data=bytes(32)),
            MemoryRequest(Op.READ, 0, 32),
        ]

        def driver():
            for request in requests:
                yield sim.process(subsystem.submit(request))

        sim.process(driver())
        sim.run()
        counts = subsystem.operation_counts()
        assert counts["programs"] == 1
        assert counts["reads"] == 1

    def test_latency_means(self):
        sim, subsystem = make_subsystem()
        run_requests(sim, subsystem, sequential_reads(2))
        assert subsystem.mean_read_latency() > 0
        assert subsystem.mean_write_latency() == 0.0


class TestRunStream:
    """``run_stream`` on a default subsystem: four 512 B reads."""

    def _stream(self, mode):
        sim = Simulator()
        subsystem = PramSubsystem(sim)
        requests = [MemoryRequest(Op.READ, address, 512)
                    for address in (0, 512, 1024, 1536)]
        subsystem.run_stream(requests, mode=mode)
        return sim, requests

    def test_closed_submits_at_the_previous_completion(self):
        sim, requests = self._stream("closed")
        assert [(r.submit_time, r.complete_time) for r in requests] == [
            (0.0, 1012.5), (1012.5, 2025.0), (2025.0, 3027.5),
            (3027.5, 4030.0)]
        assert sim.now == 4030.0

    def test_open_submits_everything_at_once(self):
        sim, requests = self._stream("open")
        assert [r.submit_time for r in requests] == [0.0] * 4
        assert [r.complete_time for r in requests] == [
            1080.0, 1080.0, 2000.0, 2000.0]
        assert sim.now == 2000.0

    def test_empty_stream_completes_nothing(self):
        sim = Simulator()
        subsystem = PramSubsystem(sim)
        subsystem.run_stream([])
        assert subsystem.requests_completed == 0
        assert sim.now == 0.0

    def test_unknown_mode_rejected(self):
        sim = Simulator()
        with pytest.raises(ValueError, match="bogus"):
            PramSubsystem(sim).run_stream([], mode="bogus")

    @pytest.mark.parametrize("op", [Op.WRITE, Op.READ])
    def test_an_operand_past_32_bytes_raises(self, op):
        # 64-byte rows make a 64-byte request one chunk, and its operand
        # overflows the datapath's 256-bit register: the chunk's error
        # is no device-model error, so the stream raises it.
        subsystem = PramSubsystem(Simulator(),
                                  geometry=PramGeometry(row_bytes=64))
        data = bytes(64) if op is Op.WRITE else None
        request = MemoryRequest(op, 0, 64, data=data)
        with pytest.raises(ValueError,
                           match="operand must be 1..32 bytes, got 64"):
            subsystem.run_stream([request])
        assert subsystem.requests_completed == 0
