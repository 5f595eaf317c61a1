"""End-to-end PRAM module tests: three-phase addressing, writes, erase."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults.plan import FaultConfig, FaultState
from repro.pram import (
    AddressError,
    BufferMissError,
    PramGeometry,
    PramModule,
    ProtocolError,
)
from repro.pram.overlay_window import (
    CMD_ERASE,
    CMD_PROGRAM,
    CMD_RETRY_PROGRAM,
    CMD_SELECTIVE_ERASE,
)


@pytest.fixture
def module():
    return PramModule()


def full_read(module, partition, row, now=0.0, buffer_id=0):
    """Drive the whole three-phase read sequence, return (finish, data)."""
    from repro.pram import AddressMap

    upper, lower = AddressMap(module.geometry).split_row(row)
    t = module.pre_active(now, buffer_id, upper)
    t = module.activate(t, buffer_id, partition, lower)
    return module.read_burst(t, buffer_id, column=0,
                             size=module.geometry.row_bytes)


def full_write(module, partition, row, data, now=0.0):
    """Stage + execute a program, return the finish time."""
    t = module.stage_program(now, partition, row, 0, data)
    return module.execute_program(t)


class TestThreePhaseRead:
    def test_unwritten_rows_read_zero(self, module):
        _, data = full_read(module, partition=0, row=5)
        assert data == bytes(32)

    def test_read_latency_near_100ns(self, module):
        finish, _ = full_read(module, 0, 5)
        assert 100.0 <= finish <= 160.0

    def test_read_returns_written_data(self, module):
        payload = bytes(range(32))
        full_write(module, 2, 7, payload)
        _, data = full_read(module, 2, 7)
        assert data == payload

    def test_activate_requires_pre_active(self, module):
        with pytest.raises(ProtocolError):
            module.activate(0.0, buffer_id=0, partition=0, lower_row=0)

    def test_read_burst_requires_valid_rdb(self, module):
        with pytest.raises(BufferMissError):
            module.read_burst(0.0, buffer_id=0, column=0, size=32)

    def test_burst_bounds_checked(self, module):
        module.pre_active(0.0, 0, 0)
        module.activate(10.0, 0, 0, 0)
        with pytest.raises(AddressError):
            module.read_burst(100.0, 0, column=20, size=20)

    def test_partial_column_read(self, module):
        full_write(module, 0, 0, bytes(range(32)))
        module.pre_active(0.0, 0, 0)
        module.activate(10.0, 0, 0, 0)
        _, data = module.read_burst(100.0, 0, column=8, size=8)
        assert data == bytes(range(8, 16))

    def test_rdb_hit_allows_repeat_burst_without_activate(self, module):
        full_write(module, 0, 0, b"\xAA" * 32)
        finish, _ = full_read(module, 0, 0)
        # Buffer still valid: burst again directly.
        finish2, data = module.read_burst(finish, 0, 0, 32)
        assert data == b"\xAA" * 32
        assert finish2 - finish == pytest.approx(57.5)


class TestWritePath:
    def test_write_latency_is_program_dominated(self, module):
        finish = full_write(module, 0, 0, bytes(32))
        assert 10_000.0 <= finish <= 11_000.0

    def test_overwrite_pays_reset_pass(self, module):
        first = full_write(module, 0, 0, b"\x11" * 32)
        second = full_write(module, 0, 0, b"\x22" * 32, now=first)
        assert (second - first) - first == pytest.approx(8_000.0, abs=500.0)

    def test_write_invalidates_stale_rdb_copy(self, module):
        full_write(module, 0, 0, b"\x01" * 32)
        full_read(module, 0, 0)  # RDB now caches the row
        full_write(module, 0, 0, b"\x02" * 32)
        _, data = full_read(module, 0, 0)
        assert data == b"\x02" * 32

    def test_payload_past_its_row_is_refused_at_staging(self, module):
        t = module.stage_program(0.0, 0, 10, 0, b"\x01" * 32)
        # 32 bytes from column 16 would run into row 11.
        with pytest.raises(AddressError, match="runs past its 32-byte row"):
            module.stage_program(t, 0, 10, 16, b"\x02" * 32)
        assert not module.window.busy
        # The window still holds the first program, and only it runs.
        module.execute_program(t)
        assert module.peek(0, 10) == b"\x01" * 32
        assert module.peek(0, 11) == bytes(32)
        assert module.cell_tracker(0).programmed_words == (
            module.geometry.words_per_row)
        assert module.last_program_time(0, 11) == float("-inf")

    @pytest.mark.parametrize("command", [CMD_PROGRAM, CMD_SELECTIVE_ERASE])
    def test_rejected_program_leaves_the_window_idle(self, module, command):
        # 64 bytes from the last row of partition 0 run past that row.
        last = module.geometry.rows_per_partition - 1
        with pytest.raises(AddressError, match="runs past its 32-byte row"):
            module.stage_program(0.0, 0, last, 0, bytes(64),
                                 command=command)
        assert not module.window.busy
        assert module.last_program_time(0, last) == float("-inf")
        # The next program, on another partition, runs as usual.
        full_write(module, 1, 0, b"\x05" * 32)
        _, data = full_read(module, 1, 0)
        assert data == b"\x05" * 32

    def test_partition_busy_serializes_programs(self, module):
        finish = full_write(module, 0, 0, bytes(32))
        # Stage the next program immediately; the array program must
        # queue behind the first partition occupancy.
        t = module.stage_program(0.0, 0, 1, 0, bytes(32))
        assert t < finish
        second_finish = module.execute_program(t)
        assert second_finish >= finish + 10_000.0

    def test_different_partitions_program_in_parallel_windows(self, module):
        finish_a = full_write(module, 0, 0, bytes(32))
        # Partition 1 is idle: its program does not queue behind 0's.
        t = module.stage_program(0.0, 1, 0, 0, bytes(32))
        finish_b = module.execute_program(t)
        assert finish_b < finish_a + 10_000.0

    def test_empty_payload_rejected(self, module):
        with pytest.raises(ProtocolError):
            module.stage_program(0.0, 0, 0, 0, b"")

    def test_oversized_payload_rejected(self, module):
        with pytest.raises(AddressError):
            module.stage_program(0.0, 0, 0, 0, bytes(1024))

    def test_bad_partition_rejected(self, module):
        with pytest.raises(AddressError):
            module.stage_program(0.0, 16, 0, 0, bytes(32))

    def test_needs_reset_refuses_a_span_past_its_row(self, module):
        module.poke(0, 100, b"\x99" * 32)
        assert module.program_needs_reset(0, 100, 16, 16)
        with pytest.raises(AddressError, match="not inside a 32-byte row"):
            module.program_needs_reset(0, 100, 16, 32)


class TestSelectiveErase:
    def test_pre_reset_makes_next_write_set_only(self, module):
        full_write(module, 0, 0, b"\x33" * 32)  # now programmed
        t = module.stage_program(0.0, 0, 0, 0, bytes(32),
                                 command=CMD_SELECTIVE_ERASE)
        reset_done = module.execute_program(t)
        start = reset_done
        finish = full_write(module, 0, 0, b"\x44" * 32, now=start)
        # SET-only: ~10us, not ~18us.
        assert finish - start < 11_000.0

    def test_reset_zeroes_the_data(self, module):
        full_write(module, 0, 0, b"\x55" * 32)
        t = module.stage_program(0.0, 0, 0, 0, bytes(32),
                                 command=CMD_SELECTIVE_ERASE)
        module.execute_program(t)
        _, data = full_read(module, 0, 0)
        assert data == bytes(32)

    def test_reset_cost_is_reset_only_latency(self, module):
        full_write(module, 0, 0, b"\x66" * 32)
        busy_from = module.partition_ready_at(0)
        t = module.stage_program(busy_from, 0, 0, 0, bytes(32),
                                 command=CMD_SELECTIVE_ERASE)
        finish = module.execute_program(t)
        assert finish - t == pytest.approx(8_000.0 + 15.0)


class TestErase:
    def test_erase_blocks_partition_for_60ms(self, module):
        full_write(module, 3, 0, b"\x77" * 32)
        t = module.stage_program(100_000.0, 3, 0, 0, b"\x00",
                                 command=CMD_ERASE)
        finish = module.execute_program(t)
        assert finish - t >= 60_000_000.0
        assert module.partition_ready_at(3) >= 60_000_000.0

    def test_erase_returns_partition_to_pristine(self, module):
        full_write(module, 3, 0, b"\x77" * 32)
        t = module.stage_program(0.0, 3, 0, 0, b"\x00", command=CMD_ERASE)
        module.execute_program(t)
        _, data = full_read(module, 3, 0)
        assert data == bytes(32)
        # Writes after an erase are SET-only again.
        start = module.partition_ready_at(3)
        finish = full_write(module, 3, 0, b"\x88" * 32, now=start)
        assert finish - start < 11_000.0


class TestPeekPoke:
    def test_poke_preloads_data(self, module):
        module.poke(0, 100, b"\x99" * 32)
        assert module.peek(0, 100) == b"\x99" * 32
        _, data = full_read(module, 0, 100)
        assert data == b"\x99" * 32

    def test_poked_rows_count_as_programmed(self, module):
        module.poke(0, 100, b"\x99" * 32)
        assert module.program_needs_reset(0, 100, 0, 32)

    def test_poke_requires_full_row(self, module):
        with pytest.raises(AddressError):
            module.poke(0, 0, b"short")

    def test_poke_range_checks_the_row_like_peek(self, module):
        last = module.geometry.rows_per_partition - 1
        for row in (0, last):
            module.poke(0, row, b"\x42" * 32)
            assert module.peek(0, row) == b"\x42" * 32
        for row in (-1, last + 1):
            with pytest.raises(AddressError, match=f"row {row} out of range"):
                module.peek(0, row)
            with pytest.raises(AddressError, match=f"row {row} out of range"):
                module.poke(0, row, b"\x42" * 32)
        assert module.cell_tracker(0).programmed_words == (
            2 * module.geometry.words_per_row)


class TestCounters:
    def test_operation_counters(self, module):
        full_write(module, 0, 0, bytes(32))
        full_read(module, 0, 0)
        t = module.stage_program(0.0, 0, 1, 0, bytes(32),
                                 command=CMD_SELECTIVE_ERASE)
        module.execute_program(t)
        assert module.programs == 1
        assert module.reads == 1
        assert module.resets == 1


@given(st.binary(min_size=32, max_size=32),
       st.integers(min_value=0, max_value=15),
       st.integers(min_value=0, max_value=1000))
@settings(max_examples=50, deadline=None)
def test_write_read_roundtrip_property(payload, partition, row):
    """Whatever is programmed is what a later read returns."""
    module = PramModule()
    full_write(module, partition, row, payload)
    _, data = full_read(module, partition, row)
    assert data == payload


def test_small_geometry_supported():
    geo = PramGeometry(channels=1, modules_per_channel=1,
                       partitions_per_bank=2, tiles_per_partition=1,
                       bitlines_per_tile=64, wordlines_per_tile=64)
    module = PramModule(geometry=geo)
    full_write(module, 0, 0, bytes(geo.row_bytes))
    _, data = full_read(module, 0, 0)
    assert data == bytes(geo.row_bytes)


# ----------------------------------------------------------------------
# The one-frame program path against the row-by-row helpers it replaced
# ----------------------------------------------------------------------
def _reference_words_touched(module, row, column, size):
    """(row, word indices) pairs a program of ``size`` bytes from
    (row, column) touches, row by row."""
    geo = module.geometry
    result = []
    offset, remaining, current_row = column, size, row
    while remaining > 0:
        chunk = min(geo.row_bytes - offset, remaining)
        result.append((current_row, range(
            offset // geo.word_bytes,
            (offset + chunk - 1) // geo.word_bytes + 1)))
        remaining -= chunk
        offset = 0
        current_row += 1
    return result


def _reference_program(module, partition, row, column, payload,
                       set_only=False):
    duration = 0.0
    tracker = module._cells[partition]
    faults = module._faults
    cursor = 0
    for target_row, words in _reference_words_touched(
            module, row, column, len(payload)):
        start = column if target_row == row else 0
        chunk = min(module.geometry.row_bytes - start, len(payload) - cursor)
        if set_only:
            tracker.set_pass(target_row, words)
            duration += module.timing.array_program(False)
        else:
            needs_reset = tracker.program(target_row, words)
            duration += module.timing.array_program(needs_reset)
        existing = module.peek(partition, target_row)
        updated = bytearray(existing)
        updated[start:start + chunk] = payload[cursor:cursor + chunk]
        if faults is not None and faults.program_faults_on:
            failed = faults.program_word_failures_for(
                module.channel_id, module.module_id, partition, target_row,
                words, lambda w, r=target_row: tracker.writes_to(r, w))
            word_bytes = module.geometry.word_bytes
            for word in failed:
                lo = word * word_bytes
                updated[lo:lo + word_bytes] = existing[lo:lo + word_bytes]
            module._program_failures.extend(
                (target_row, word) for word in failed)
        module._storage[(partition, target_row)] = bytes(updated)
        module.buffers.invalidate_row(partition, target_row)
        cursor += chunk
    return duration


def _reference_reset(module, partition, row, column, size):
    duration = 0.0
    tracker = module._cells[partition]
    for target_row, words in _reference_words_touched(
            module, row, column, size):
        start = column if target_row == row else 0
        chunk = min(module.geometry.row_bytes - start, size)
        tracker.reset(target_row, words)
        duration += module.timing.array_reset_only()
        existing = bytearray(module.peek(partition, target_row))
        existing[start:start + chunk] = bytes(chunk)
        module._storage[(partition, target_row)] = bytes(existing)
        module.buffers.invalidate_row(partition, target_row)
        size -= chunk
    return duration


def _reference_execute(module, now, command, partition, row, column,
                       payload):
    """``execute_program`` as the per-row helpers ran it."""
    module._program_failures = []
    if command != CMD_SELECTIVE_ERASE:
        module._last_program[(partition, row)] = now
    if command == CMD_SELECTIVE_ERASE:
        duration = _reference_reset(module, partition, row, column,
                                    len(payload))
        module.resets += 1
    elif command == CMD_RETRY_PROGRAM:
        duration = _reference_program(module, partition, row, column,
                                      payload, set_only=True)
        module.retry_programs += 1
    else:
        duration = _reference_program(module, partition, row, column,
                                      payload)
        module.programs += 1
    finish = module._occupy(partition, now, duration)
    module._program_end[partition] = finish
    return finish + module.timing.write_recovery_ns


def _device_state(module):
    trackers = [(tracker._programmed, tracker._pulses,
                 tracker.total_set_passes, tracker.total_reset_passes)
                for tracker in module._cells[:2]]
    return (module._storage, trackers, module._partition_busy_until,
            module._program_end, module._last_program, module.programs,
            module.resets, module.retry_programs)


@st.composite
def _programs(draw):
    command = draw(st.sampled_from(
        [CMD_PROGRAM, CMD_RETRY_PROGRAM, CMD_SELECTIVE_ERASE]))
    column = draw(st.integers(min_value=0, max_value=31))
    size = draw(st.integers(min_value=1, max_value=32 - column))
    return (draw(st.floats(min_value=0.0, max_value=20_000.0)), command,
            draw(st.integers(min_value=0, max_value=1)),
            draw(st.integers(min_value=0, max_value=2)), column,
            draw(st.binary(min_size=size, max_size=size)))


@given(st.lists(_programs(), max_size=25), st.booleans())
@settings(max_examples=200, deadline=None)
def test_one_frame_program_matches_the_row_helpers(programs, faulty):
    """Every program, SET-only retry and pre-RESET leaves the device as
    the row-by-row path did, under a program-fault plan with partition
    stalls as well as without one."""
    config = FaultConfig(seed=3, program_fail_probability=0.3,
                         wear_fail_factor=0.5, endurance_budget=6,
                         partition_stall_probability=0.3,
                         partition_stall_ns=700.0)
    subject, reference = (
        PramModule(faults=FaultState(config) if faulty else None)
        for _ in range(2))
    now = 0.0
    for delay, command, partition, row, column, payload in programs:
        now += delay
        staged = subject.stage_program(now, partition, row, column, payload,
                                       command=command)
        finish = subject.execute_program(staged)
        assert finish == _reference_execute(reference, staged, command,
                                             partition, row, column, payload)
        assert (subject.take_program_failures()
                == reference.take_program_failures())
        assert _device_state(subject) == _device_state(reference)
