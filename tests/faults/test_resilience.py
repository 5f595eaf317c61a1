"""Controller resilience: ECC on reads, retry/retirement on writes,
and graceful containment of device-model errors."""

import typing

import pytest

from repro.controller import MemoryRequest, Op, PramSubsystem
from repro.controller.request import RequestStatus
from repro.faults.plan import FaultConfig
from repro.pram.errors import ProtocolError
from repro.sim import Simulator

ROW_BYTES = 32


def run_requests(subsystem: PramSubsystem,
                 requests: typing.Sequence[MemoryRequest],
                 concurrent: bool = False) -> None:
    """Drive ``requests`` to completion (serially unless asked)."""
    sim = subsystem.sim

    def driver() -> typing.Generator:
        if concurrent:
            yield sim.all_of([sim.process(subsystem.submit(request))
                              for request in requests])
        else:
            for request in requests:
                yield sim.process(subsystem.submit(request))

    process = sim.process(driver())
    sim.run()
    assert process.ok, process.value


def payload(tag: int) -> bytes:
    return bytes((tag * 13 + i) % 256 for i in range(ROW_BYTES))


class TestEccOnReads:
    def test_single_flip_corrected_and_reported(self):
        subsystem = PramSubsystem(
            Simulator(), faults=FaultConfig(read_flip_probability=1.0))
        write = MemoryRequest(Op.WRITE, 0, ROW_BYTES, data=payload(1))
        read = MemoryRequest(Op.READ, 0, ROW_BYTES)
        run_requests(subsystem, [write, read])
        assert write.status is RequestStatus.OK
        assert read.status is RequestStatus.CORRECTED
        assert read.result == payload(1)  # corrected, not corrupted
        assert subsystem.faults is not None
        assert subsystem.faults.ecc_corrected_bits >= 1
        assert subsystem.faults.ecc_uncorrectable == 0
        assert subsystem.faults.requests_corrected == 1

    def test_double_flip_detected_and_degraded(self):
        subsystem = PramSubsystem(
            Simulator(),
            faults=FaultConfig(read_flip_probability=1.0,
                               read_double_flip_probability=1.0))
        write = MemoryRequest(Op.WRITE, 0, ROW_BYTES, data=payload(2))
        read = MemoryRequest(Op.READ, 0, ROW_BYTES)
        run_requests(subsystem, [write, read])
        assert read.status is RequestStatus.DEGRADED
        assert read.error is not None and "uncorrectable" in read.error
        assert read.result is not None and read.result != payload(2)
        # Exactly one codeword (two bits) is corrupted.
        diff = [i for i in range(ROW_BYTES)
                if read.result[i] != payload(2)[i]]
        assert diff and all(index // 8 == diff[0] // 8 for index in diff)
        assert subsystem.faults is not None
        assert subsystem.faults.ecc_uncorrectable == 1
        assert subsystem.requests_degraded == 1


class TestRetryAndRetirement:
    def test_wear_exhaustion_retires_row_and_preserves_data(self):
        subsystem = PramSubsystem(
            Simulator(),
            faults=FaultConfig(endurance_budget=2, max_program_retries=2,
                               spare_rows_per_partition=2))
        first = MemoryRequest(Op.WRITE, 0, ROW_BYTES, data=payload(4))
        second = MemoryRequest(Op.WRITE, 0, ROW_BYTES, data=payload(5))
        read = MemoryRequest(Op.READ, 0, ROW_BYTES)
        run_requests(subsystem, [first, second, read])
        faults = subsystem.faults
        assert faults is not None
        # The second write hits the endurance budget, burns its
        # retries, and lands on a spare row.
        assert first.status is RequestStatus.OK
        assert second.status is RequestStatus.OK
        assert faults.retry_attempts >= 1
        assert faults.retries_exhausted >= 1
        assert faults.rows_retired >= 1
        # Reads now follow the remap and see the new data.
        assert read.result == payload(5)
        assert subsystem.inspect(0, ROW_BYTES) == payload(5)

    def test_retry_uses_set_only_programs(self):
        subsystem = PramSubsystem(
            Simulator(),
            faults=FaultConfig(endurance_budget=2, max_program_retries=2,
                               spare_rows_per_partition=2))
        first = MemoryRequest(Op.WRITE, 0, ROW_BYTES, data=payload(6))
        second = MemoryRequest(Op.WRITE, 0, ROW_BYTES, data=payload(7))
        run_requests(subsystem, [first, second])
        retry_programs = sum(module.retry_programs
                             for channel in subsystem.modules
                             for module in channel)
        assert retry_programs >= 1

    def test_spare_exhaustion_fails_request_without_raising(self):
        subsystem = PramSubsystem(
            Simulator(),
            faults=FaultConfig(endurance_budget=1, max_program_retries=1,
                               spare_rows_per_partition=0))
        doomed = MemoryRequest(Op.WRITE, 0, ROW_BYTES, data=payload(8))
        read = MemoryRequest(Op.READ, ROW_BYTES * 64, ROW_BYTES)
        run_requests(subsystem, [doomed, read])
        faults = subsystem.faults
        assert faults is not None
        assert doomed.status is RequestStatus.FAILED
        assert doomed.error is not None and "no spare" in doomed.error
        assert faults.retire_failures >= 1
        assert subsystem.requests_failed == 1
        # The subsystem keeps serving other requests.
        assert read.status is RequestStatus.OK
        assert read.result == bytes(ROW_BYTES)

    def test_zero_plan_reserves_no_spares(self):
        subsystem = PramSubsystem(
            Simulator(), faults=FaultConfig(read_flip_probability=0.5))
        for channel in subsystem.channels:
            assert channel._retirement is None


class TestSubmitContainment:
    """Device-model errors complete the request FAILED, not crash."""

    def test_protocol_error_contained_and_concurrent_request_ok(self):
        subsystem = PramSubsystem(Simulator())
        victim_module = subsystem.modules[0][0]

        def boom(*args: typing.Any, **kwargs: typing.Any) -> float:
            raise ProtocolError("injected device fault")

        victim_module.stage_program = boom  # type: ignore[method-assign]
        doomed = MemoryRequest(Op.WRITE, 0, ROW_BYTES, data=payload(9))
        healthy = MemoryRequest(Op.READ, ROW_BYTES * 1024, ROW_BYTES)
        run_requests(subsystem, [doomed, healthy], concurrent=True)
        assert doomed.status is RequestStatus.FAILED
        assert doomed.error is not None
        assert "ProtocolError" in doomed.error
        assert doomed.result == b""
        assert healthy.status is RequestStatus.OK
        assert healthy.result == bytes(ROW_BYTES)
        assert subsystem.requests_failed == 1

    def test_failed_read_returns_zero_fill(self):
        subsystem = PramSubsystem(Simulator())
        victim_module = subsystem.modules[0][0]

        def boom(*args: typing.Any,
                 **kwargs: typing.Any) -> typing.Tuple[float, bytes]:
            raise ProtocolError("injected read fault")

        victim_module.read_burst = boom  # type: ignore[method-assign]
        doomed = MemoryRequest(Op.READ, 0, ROW_BYTES)
        run_requests(subsystem, [doomed])
        assert doomed.status is RequestStatus.FAILED
        assert doomed.result == bytes(ROW_BYTES)

    def test_done_event_still_fires_on_failure(self):
        sim = Simulator()
        subsystem = PramSubsystem(sim)
        victim_module = subsystem.modules[0][0]

        def boom(*args: typing.Any, **kwargs: typing.Any) -> float:
            raise ProtocolError("injected")

        victim_module.stage_program = boom  # type: ignore[method-assign]
        doomed = MemoryRequest(Op.WRITE, 0, ROW_BYTES, data=payload(10),
                               done=sim.event())
        seen = {}

        def waiter() -> typing.Generator:
            seen["result"] = yield doomed.done

        sim.process(subsystem.submit(doomed))
        process = sim.process(waiter())
        sim.run()
        assert process.ok
        assert seen["result"] == b""


class TestStallInjection:
    def test_stalls_slow_the_run_deterministically(self):
        def total_ns(faults: typing.Optional[FaultConfig]) -> float:
            sim = Simulator()
            subsystem = PramSubsystem(sim, faults=faults)
            requests = [
                MemoryRequest(Op.WRITE, i * ROW_BYTES, ROW_BYTES,
                              data=payload(i))
                for i in range(8)
            ]
            run_requests(subsystem, requests)
            return sim.now

        stall_plan = FaultConfig(partition_stall_probability=1.0,
                                 partition_stall_ns=500.0)
        baseline = total_ns(None)
        stalled = total_ns(stall_plan)
        assert stalled > baseline
        assert total_ns(stall_plan) == stalled

    def test_requests_complete_despite_stalls(self):
        subsystem = PramSubsystem(
            Simulator(),
            faults=FaultConfig(partition_stall_probability=0.5,
                               partition_stall_ns=250.0, seed=11))
        write = MemoryRequest(Op.WRITE, 0, ROW_BYTES, data=payload(12))
        read = MemoryRequest(Op.READ, 0, ROW_BYTES)
        run_requests(subsystem, [write, read])
        assert read.result == payload(12)
        assert write.status is RequestStatus.OK


class TestValidationAtConstruction:
    def test_bad_plan_fails_before_any_simulation(self):
        with pytest.raises(ValueError, match="read_flip_probability"):
            PramSubsystem(Simulator(),
                          faults=FaultConfig(read_flip_probability=2.0))
