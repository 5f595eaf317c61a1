"""One PRAM chip: the LPDDR2-NVM three-phase-addressing state machine.

The module is a *timed functional model*: every operation takes the
current simulated time ``now``, mutates device state, and returns the
time at which the operation finishes.  Simulation processes then sleep
until that finish time.  Partition busy windows are tracked inside the
module so overlapping schedules (the interleaving scheduler) and
blocking ones (bare-metal) exercise the same device.

Data is real: reads return the bytes earlier programs stored, with
unwritten rows reading as zeros (the pristine RESET state).
"""

from __future__ import annotations

import typing

from repro.faults.ecc import apply_bit_flips
from repro.faults.plan import FaultState
from repro.pram import overlay_window as ow
from repro.pram.cell import WordStateTracker
from repro.pram.constants import PramGeometry, PramTimingParams
from repro.pram.errors import AddressError, BufferMissError, ProtocolError
from repro.pram.row_buffer import RowBufferSet
from repro.pram.timing import TimingModel
from repro.telemetry.tracer import current_tracer


class PramModule:
    """A single multi-partition PRAM package."""

    def __init__(self, geometry: PramGeometry = PramGeometry(),
                 params: PramTimingParams = PramTimingParams(),
                 channel_id: int = 0, module_id: int = 0,
                 faults: FaultState | None = None) -> None:
        self.geometry = geometry
        self.params = params
        self.timing = TimingModel(params, geometry)
        self.channel_id = channel_id
        self.module_id = module_id
        # The module has no simulator reference (operations are timed
        # functionally), so it binds the ambient tracer at construction
        # to place program/reset/erase spans on its partition tracks.
        self._tracer = current_tracer()
        self.buffers = RowBufferSet(geometry.rdb_count, geometry.row_bytes)
        self.window = ow.OverlayWindow()
        # Shared blank row for never-written locations: bytes are
        # immutable, so one allocation serves every miss on the
        # per-chunk read path.
        self._blank_row = bytes(geometry.row_bytes)
        self._storage: typing.Dict[typing.Tuple[int, int], bytes] = {}
        self._cells = [WordStateTracker(geometry.words_per_row)
                       for _ in range(geometry.partitions_per_bank)]
        # The geometry bounds each phase checks against, read once.
        self._partitions = geometry.partitions_per_bank
        self._rows = geometry.rows_per_partition
        self._row_bytes = geometry.row_bytes
        self._word_bytes = geometry.word_bytes
        self._lower_bits = geometry.lower_row_bits
        self._lower_limit = 1 << geometry.lower_row_bits
        self._all_words = range(geometry.words_per_row)
        # The array time of a program (indexed by whether it pays the
        # RESET pass) and of a pre-RESET, read once.
        self._program_ns = (self.timing.array_program(False),
                            self.timing.array_program(True))
        self._reset_ns = self.timing.array_reset_only()
        self._partition_busy_until = [0.0] * geometry.partitions_per_bank
        # When each row was last programmed (simulated ns); consumers
        # of write hints use this to skip rows rewritten after the
        # hint was registered.
        self._last_program: typing.Dict[typing.Tuple[int, int], float] = {}
        # Write-pausing support ([66]): per-partition in-flight program
        # end times and remaining time of paused programs.
        self._program_end: typing.Dict[int, float] = {}
        self._paused_remaining: typing.Dict[int, float] = {}
        # Optional fault injection (repro.faults): the device records
        # the faults it suffered so the controller can verify/retry via
        # take_read_fault()/take_program_failures().  None costs one
        # attribute check per entry point.
        self._faults = faults
        self._read_fault: typing.Tuple[int, ...] = ()
        self._program_failures: typing.List[typing.Tuple[int, int]] = []
        # Operation counters for the energy model and diagnostics.
        self.reads = 0
        self.programs = 0
        self.resets = 0
        self.erases = 0
        self.retry_programs = 0

    # ------------------------------------------------------------------
    # Partition busy bookkeeping
    # ------------------------------------------------------------------
    def partition_ready_at(self, partition: int) -> float:
        """Earliest time an array operation can start on ``partition``."""
        if not 0 <= partition < self._partitions:
            self._check_partition(partition)
        return self._partition_busy_until[partition]

    def program_in_flight(self, partition: int, now: float) -> bool:
        """Is an array program still running on ``partition``?"""
        self._check_partition(partition)
        return (self._program_end.get(partition, float("-inf")) > now)

    def pause_program(self, partition: int, now: float,
                      resume_penalty_ns: float) -> bool:
        """Pause an in-flight program so a read can cut in ([66]).

        Frees the partition immediately; the remaining program time
        (plus the resume penalty) must be re-applied with
        :meth:`resume_program` once the read has been issued.  Returns
        False (no-op) when nothing is programming.
        """
        if not self.program_in_flight(partition, now):
            return False
        remaining = self._partition_busy_until[partition] - now
        self._paused_remaining[partition] = remaining + resume_penalty_ns
        self._partition_busy_until[partition] = now
        self._program_end[partition] = now
        return True

    def resume_program(self, partition: int, now: float) -> float:
        """Resume a paused program; returns its new completion time."""
        self._check_partition(partition)
        remaining = self._paused_remaining.pop(partition, 0.0)
        if remaining <= 0:
            return self._partition_busy_until[partition]
        finish = self._occupy(partition, now, remaining)
        self._program_end[partition] = finish
        return finish

    def _occupy(self, partition: int, start: float, duration: float) -> float:
        faults = self._faults
        if faults is not None and faults.stalls_on:
            # Injected stuck-busy window: the partition holds its busy
            # state longer than the timing model says it should.
            duration += faults.partition_stall(
                self.channel_id, self.module_id, partition)
        begin = max(start, self._partition_busy_until[partition])
        finish = begin + duration
        self._partition_busy_until[partition] = finish
        return finish

    # ------------------------------------------------------------------
    # Three-phase addressing
    # ------------------------------------------------------------------
    def pre_active(self, now: float, buffer_id: int,
                   upper_row: int) -> float:
        """Phase 1: latch ``upper_row`` into the selected RAB."""
        if upper_row < 0 or upper_row >= (
                1 << max(1, self.geometry.upper_row_bits)):
            raise AddressError(f"upper row {upper_row} out of range")
        self.buffers.load_rab(buffer_id, upper_row)
        return now + self.timing.pre_active_ns

    def activate(self, now: float, buffer_id: int, partition: int,
                 lower_row: int) -> float:
        """Phase 2: compose the row address, sense the row into the RDB.

        The composed address is checked against the overlay-window
        range (Section V-A); window-mapped rows never touch the array.
        One frame runs the whole phase, in this order: the partition
        check, the pair lookup, the address composition and its
        checks, the partition's busy window, the row fetch and the RDB
        load with its length check and LRU touch.
        """
        if not 0 <= partition < self._partitions:
            self._check_partition(partition)
        buffers = self.buffers
        pairs = buffers._pairs
        if not 0 <= buffer_id < len(pairs):
            buffers.pair(buffer_id)  # raises the range error
        pair = pairs[buffer_id]
        if not pair.rab_valid:
            raise ProtocolError(
                f"activate on buffer {buffer_id} before any pre-active"
            )
        # The row address: the RAB's upper part and ``lower_row``.
        upper = pair.upper_row
        if upper is None:
            raise ProtocolError("RAB holds no upper row address")
        if lower_row < 0 or lower_row >= self._lower_limit:
            raise AddressError(f"lower row {lower_row} out of range")
        row = (upper << self._lower_bits) | lower_row
        if row >= self._rows:
            raise AddressError(f"composed row {row} beyond partition")
        # The partition is busy for tRCD, booked as _occupy books it.
        duration = self.timing.activate_ns
        faults = self._faults
        if faults is not None and faults.stalls_on:
            duration += faults.partition_stall(
                self.channel_id, self.module_id, partition)
        busy = self._partition_busy_until
        begin = busy[partition]
        finish = (begin if begin > now else now) + duration
        busy[partition] = finish
        # The row fetch: a RAB loaded with a negative upper part
        # composes a negative row.
        if row < 0:
            raise AddressError(f"row {row} out of range")
        data = self._storage.get((partition, row), self._blank_row)
        # The RDB load, as RowBufferSet.load_rdb does it.
        if len(data) != buffers.row_bytes:
            buffers.load_rdb(buffer_id, partition, row, data)  # raises
        pair.partition = partition
        pair.row = row
        pair.data = data
        pair.rdb_valid = True
        buffers._clock += 1
        pair.last_use = buffers._clock
        return finish

    def read_burst(self, now: float, buffer_id: int, column: int,
                   size: int) -> typing.Tuple[float, bytes]:
        """Phase 3 (read): stream ``size`` bytes out of the RDB."""
        pairs = self.buffers._pairs
        if not 0 <= buffer_id < len(pairs):
            self.buffers.pair(buffer_id)  # raises the range error
        pair = pairs[buffer_id]
        if not pair.rdb_valid or pair.data is None:
            raise BufferMissError(
                f"read burst on buffer {buffer_id} with no valid RDB"
            )
        if column < 0 or column + size > self._row_bytes:
            raise AddressError(
                f"burst [{column}, {column + size}) exceeds the "
                f"{self._row_bytes}-byte row buffer"
            )
        self.reads += 1
        timing = self.timing
        burst = timing._bursts.get(size)
        if burst is None:
            burst = timing.burst(size)
        finish = now + timing.read_preamble_ns + burst
        data = pair.data[column:column + size]
        faults = self._faults
        if faults is not None and faults.read_faults_on:
            bits = faults.read_flip_bits(
                self.channel_id, self.module_id,
                pair.partition if pair.partition is not None else -1,
                pair.row if pair.row is not None else -1, size)
            if bits:
                data = apply_bit_flips(data, bits)
                self._read_fault = bits
        return finish, data

    # ------------------------------------------------------------------
    # Write path: overlay window + program buffer
    # ------------------------------------------------------------------
    def stage_program(self, now: float, partition: int, row: int,
                      column: int, data: bytes,
                      command: int = ow.CMD_PROGRAM) -> float:
        """Stage a program in the overlay window.

        Prices the translator's register-write sequence (Section V-B):
        command code, target address, burst size, then the payload burst
        into the program buffer; the window keeps the fields themselves.
        A program stays inside one row, as every 32-byte operand the
        controller moves does: a payload that runs past its row is
        refused before the window changes.  Returns when staging
        completes; call :meth:`execute_program` afterwards to launch
        the array program.
        """
        if not 0 <= partition < self._partitions:
            self._check_partition(partition)
        rows = self._rows
        if row < 0 or row >= rows:
            raise AddressError(f"row {row} out of range")
        size = len(data)
        row_bytes = self._row_bytes
        if column < 0 or column + size > row_bytes:
            raise AddressError(
                f"payload [{column}, {column + size}) runs past its "
                f"{row_bytes}-byte row")
        window = self.window
        if size > window.program_buffer_bytes:
            raise AddressError("payload exceeds the program buffer")
        if not data:
            raise ProtocolError("empty program payload")
        window.stage(command, partition, row, column, data)
        timing = self.timing
        burst = timing._bursts.get(size)
        if burst is None:
            burst = timing.burst(size)
        return now + timing.activate_ns + timing.write_preamble_ns + burst

    def execute_program(self, now: float,
                        req: int | None = None) -> float:
        """Execute the staged program: program its data to the array.

        Returns the completion time.  The target partition is busy for
        the whole array program; the overlay window frees at the same
        instant (status register back to idle).  Every program,
        pre-RESET and retry runs in this frame: staging kept it inside
        one row.  ``req`` tags the emitted span with the owning memory
        request for latency attribution; background work (pre-resets,
        gap moves) leaves it unset.
        """
        window = self.window
        command, partition, row, column, payload = window.execute()
        # Failures belong to exactly one program: stale records from
        # background work (pre-resets, gap moves) must not alias into
        # the next request's verify pass.
        self._program_failures = []
        faults = self._faults
        if command == ow.CMD_ERASE:
            duration = self.timing.array_erase()
            finish = self._occupy(partition, now, duration)
            self._erase_partition(partition)
            self.erases += 1
            span_name = "erase"
        else:
            size = len(payload)
            word_bytes = self._word_bytes
            words = range(column // word_bytes,
                          (column + size - 1) // word_bytes + 1)
            key = (partition, row)
            storage = self._storage
            tracker = self._cells[partition]
            if command == ow.CMD_SELECTIVE_ERASE:
                tracker.reset(row, words)
                duration = self._reset_ns
                updated = bytearray(storage.get(key, self._blank_row))
                updated[column:column + size] = bytes(size)
                storage[key] = bytes(updated)
                self.resets += 1
                span_name = "pre_reset"
            else:
                self._last_program[key] = now
                if command == ow.CMD_PROGRAM:
                    duration = self._program_ns[tracker.program(row, words)]
                    self.programs += 1
                    span_name = "program"
                else:
                    # Program-and-verify retry: the failed words' cells
                    # are re-SET without a RESET pass (the
                    # selective-erasing asymmetry applied to recovery).
                    tracker.set_pass(row, words)
                    duration = self._program_ns[False]
                    self.retry_programs += 1
                    span_name = "retry_program"
                if faults is None or not faults.program_faults_on:
                    if size == self._row_bytes:
                        storage[key] = payload
                    else:
                        updated = bytearray(storage.get(key, self._blank_row))
                        updated[column:column + size] = payload
                        storage[key] = bytes(updated)
                else:
                    existing = storage.get(key, self._blank_row)
                    updated = bytearray(existing)
                    updated[column:column + size] = payload
                    failed = faults.program_word_failures_for(
                        self.channel_id, self.module_id, partition, row,
                        words, lambda word: tracker.writes_to(row, word))
                    # Failed SET passes leave the word's cells (and
                    # bytes) exactly as they were before the pulse.
                    for word in failed:
                        lo = word * word_bytes
                        updated[lo:lo + word_bytes] = existing[
                            lo:lo + word_bytes]
                    self._program_failures = [(row, word) for word in failed]
                    storage[key] = bytes(updated)
            self.buffers.invalidate_row(partition, row)
            # _occupy(partition, now, duration) written out; a stall
            # lengthens the occupancy, not the span's duration.
            held = duration
            if faults is not None and faults.stalls_on:
                held += faults.partition_stall(
                    self.channel_id, self.module_id, partition)
            busy = self._partition_busy_until
            begin = busy[partition]
            finish = busy[partition] = (begin if begin > now else now) + held
        self._program_end[partition] = finish
        tracer = self._tracer
        if tracer.enabled:
            args: typing.Dict[str, typing.Any] = {"row": row}
            if req is not None:
                args["req"] = req
            tracer.emit(
                span_name,
                f"ch{self.channel_id}.m{self.module_id}.p{partition}",
                max(now, finish - duration), finish, **args)
        finish += self.timing.write_recovery_ns
        window.complete()
        return finish

    # ------------------------------------------------------------------
    # Planning helpers for schedulers (no state change)
    # ------------------------------------------------------------------
    def program_needs_reset(self, partition: int, row: int, column: int,
                            size: int) -> bool:
        """Would a program of [column, column+size) pay the RESET pass?

        The span is one :meth:`stage_program` accepts: non-empty and
        inside one row of the partition.
        """
        if not 0 <= partition < self._partitions:
            self._check_partition(partition)
        if row < 0 or row >= self._rows:
            raise AddressError(f"row {row} out of range")
        if column < 0 or size < 1 or column + size > self._row_bytes:
            raise AddressError(
                f"span [{column}, {column + size}) is not inside a "
                f"{self._row_bytes}-byte row")
        word_bytes = self._word_bytes
        return self._cells[partition].needs_reset(
            row, range(column // word_bytes,
                       (column + size - 1) // word_bytes + 1))

    def last_program_time(self, partition: int, row: int) -> float:
        """When the row was last programmed (-inf if never)."""
        if not 0 <= partition < self._partitions:
            self._check_partition(partition)
        return self._last_program.get((partition, row), float("-inf"))

    def cell_tracker(self, partition: int) -> WordStateTracker:
        """Cell-state tracker of one partition (tests, wear studies)."""
        self._check_partition(partition)
        return self._cells[partition]

    def take_read_fault(self) -> typing.Tuple[int, ...]:
        """Consume the flipped-bit record of the last read burst.

        The controller calls this synchronously after
        :meth:`read_burst` (no yield in between), so concurrent chunks
        on one module can never observe each other's record.
        """
        bits, self._read_fault = self._read_fault, ()
        return bits

    def take_program_failures(self) -> typing.List[typing.Tuple[int, int]]:
        """Consume the (row, word) SET failures of the last program.

        This is the device's program-and-verify status: a non-empty
        list means the named words still hold their pre-program bytes
        and need a retry (or row retirement).
        """
        failures, self._program_failures = self._program_failures, []
        return failures

    def peek(self, partition: int, row: int) -> bytes:
        """Direct functional read of one row (testing/verification)."""
        self._check_partition(partition)
        if row < 0 or row >= self._rows:
            raise AddressError(f"row {row} out of range")
        return self._storage.get((partition, row), self._blank_row)

    def poke(self, partition: int, row: int, data: bytes) -> None:
        """Zero-time backing-store initialization (data pre-placement).

        Mirrors the paper's experimental setup step that initializes
        input data in persistent storage before runs.  Marks the
        touched words programmed so later overwrites price correctly.
        """
        if not 0 <= partition < self._partitions:
            self._check_partition(partition)
        if row < 0 or row >= self._rows:
            raise AddressError(f"row {row} out of range")
        if len(data) != self._row_bytes:
            raise AddressError(
                f"poke must cover the whole {self._row_bytes}-byte row"
            )
        self._storage[(partition, row)] = bytes(data)
        self._cells[partition].program(row, self._all_words)
        self.buffers.invalidate_row(partition, row)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _check_partition(self, partition: int) -> None:
        if not 0 <= partition < self.geometry.partitions_per_bank:
            raise AddressError(
                f"partition {partition} out of range "
                f"[0, {self.geometry.partitions_per_bank})"
            )

    def _erase_partition(self, partition: int) -> None:
        tracker = self._cells[partition]
        rows = [row for (part, row) in self._storage if part == partition]
        tracker.erase_rows(rows)
        for row in rows:
            del self._storage[(partition, row)]
            self.buffers.invalidate_row(partition, row)
