"""One LPDDR2-NVM channel controller.

The channel is where policy turns into timing.  Resources:

* the shared command/DQ **bus** — one transfer at a time across the
  channel's 16 modules;
* each module's **overlay window** — one in-flight program per module;
* each module's **partitions** — busy windows tracked by the module.

Under the interleaving policy these are acquired independently, so the
burst of one chunk proceeds while another chunk's partition senses or
programs (Figure 12).  Under bare-metal ordering a single channel-wide
lock serializes whole chunks, array time included — the noop scheduler
of Figure 13.

Phase skipping (Section III-B) is a property of the hardware-automated
controller and applies in every policy: an RAB hit skips the pre-active
phase, an RDB hit skips both pre-active and activate.
"""

from __future__ import annotations

import typing

from repro.controller.datapath import Datapath
from repro.controller.phy import PramPhy
from repro.controller.scheduler import SchedulerPolicy, WriteHintStore
from repro.controller.request import Op, RequestStatus
from repro.controller.translator import ChunkPlan, RetirementMap
from repro.controller.wear_level import StartGapMapper
from repro.faults.ecc import secded_decode
from repro.faults.plan import FaultState
from repro.pram.address import AddressMap, PramAddress
from repro.pram.commands import Command, CommandRecord
from repro.pram.errors import AddressError
from repro.pram.module import PramModule
from repro.pram.overlay_window import CMD_RETRY_PROGRAM, CMD_SELECTIVE_ERASE
from repro.sim import (
    Counter,
    Histogram,
    Join,
    LatencySketch,
    Resource,
    Simulator,
)
from repro.sim.resource import Request
from repro.telemetry.metrics import current_metrics
from repro.telemetry.timeseries import Sampler

#: One hinted pre-reset target: (row address, chunk bytes, hint time).
_HintChunk = typing.Tuple[PramAddress, int, float]

#: What resuming a paused program costs under write pausing ([66]).
PAUSE_RESUME_PENALTY_NS = 1_000.0

#: Bound once: reading an enum member costs more than a global lookup.
_WRITE = Op.WRITE


class ChannelController:
    """Drives the PRAM modules of one channel as simulation processes."""

    def __init__(self, sim: Simulator, modules: typing.Sequence[PramModule],
                 policy: SchedulerPolicy,
                 address_map: AddressMap,
                 phase_skipping: bool,
                 hint_store: WriteHintStore,
                 channel_id: int,
                 wear_leveling: bool,
                 gap_write_interval: int,
                 write_pausing: bool,
                 faults: FaultState | None) -> None:
        if not modules:
            raise ValueError("a channel needs at least one module")
        self.sim = sim
        self.modules = list(modules)
        self.policy = policy
        # The policy's properties, read once: each reads enum members.
        self._interleaves = policy.interleaves
        self._pre_resets = policy.pre_resets
        self.address_map = address_map
        # AddressMap.split_row's bound and split, for the read path.
        self._rows = address_map.geometry.rows_per_partition
        self._lower_bits = address_map.geometry.lower_row_bits
        self._lower_mask = (1 << self._lower_bits) - 1
        self.phase_skipping = phase_skipping
        self.hints = hint_store
        self.channel_id = channel_id
        self.phy = PramPhy(modules[0].params)
        self._tck = self.phy.params.tck_ns
        self.datapath = Datapath()
        self.bus = Resource(sim, capacity=1, name=f"ch{channel_id}.bus")
        self._serial_lock = Resource(
            sim, capacity=1, name=f"ch{channel_id}.serial")
        self._window_locks = [
            Resource(sim, capacity=1, name=f"ch{channel_id}.m{i}.window")
            for i in range(len(self.modules))
        ]
        # Read-pipeline hazard tracking: a chunk owns its RAB/RDB pair
        # from probe to burst, so a concurrent chunk cannot re-activate
        # over an RDB that has not been streamed out yet.  The slot
        # resource bounds in-flight reads per module to the pair count,
        # which guarantees the probe always finds a free pair.
        pair_count = len(self.modules[0].buffers)
        self._pair_slots = [
            Resource(sim, capacity=pair_count,
                     name=f"ch{channel_id}.m{i}.pairs")
            for i in range(len(self.modules))
        ]
        self._busy_pairs: typing.List[typing.Set[int]] = [
            set() for _ in self.modules
        ]
        # Optional start-gap wear leveling (Section VII): one mapper
        # per (module, partition); one row per partition is the spare.
        self.wear_leveling = wear_leveling
        self._mappers: typing.Dict[typing.Tuple[int, int],
                                   StartGapMapper] = {}
        self._gap_write_interval = gap_write_interval
        self.gap_moves = 0
        # Optional write pausing ([66]): reads preempt in-flight
        # programs at a resume-penalty cost.
        self.write_pausing = write_pausing
        self.pauses_issued = 0
        # Optional fault resilience (repro.faults): ECC over read
        # bursts, program-and-verify retries, and bad-row retirement.
        # Spares are carved out only when the plan can actually fail a
        # program — otherwise geometry (and start-gap rotation) stays
        # byte-identical to a run with no plan.
        self.faults = faults
        self._retirement: RetirementMap | None = None
        if faults is not None and faults.program_faults_on:
            geometry = self.modules[0].geometry
            spares = min(faults.config.spare_rows_per_partition,
                         geometry.rows_per_partition - 1)
            if spares > 0:
                self._retirement = RetirementMap(
                    geometry.rows_per_partition, spares)
        # A logical row is its physical row unless start-gap rotation
        # or bad-row retirement can remap it.
        self._remaps_rows = wear_leveling or self._retirement is not None
        # Statistics
        self.read_latency = Histogram(f"ch{channel_id}.read_latency")
        self.write_latency = Histogram(f"ch{channel_id}.write_latency")
        # Per-chunk tail-latency sketches: fed only while a metrics
        # registry has them attached, since nothing else reads them.
        self.read_sketch = LatencySketch(f"ch{channel_id}.sketch.read")
        self.write_sketch = LatencySketch(f"ch{channel_id}.sketch.write")
        self.chunks_read = 0
        self.chunks_written = 0
        self.pre_resets_issued = 0
        # Phase skips (see phase_skips): an RAB hit skips the
        # pre-active, an RDB hit both phases.
        self.rab_hits = 0
        self.rdb_hits = 0
        # Multi-resource-interleaving evidence (Figure 12): bus time of
        # read bursts spent while *another* partition's array access was
        # in flight.  Tracked only when telemetry is active — the
        # window bookkeeping is pure observation and must cost nothing
        # on untraced runs.
        self.overlap_ns = 0.0
        self._array_windows: typing.List[
            typing.Tuple[float, float, typing.Tuple[int, int]]] = []
        metrics = current_metrics()
        self._metrics = metrics
        self._metrics_on = metrics.enabled
        self._metrics_prefix = metrics.component_prefix(
            f"pram.ch{channel_id}")
        if metrics.enabled:
            metrics.attach(f"{self._metrics_prefix}.read_latency",
                           self.read_latency)
            metrics.attach(f"{self._metrics_prefix}.write_latency",
                           self.write_latency)
            metrics.attach(f"{self._metrics_prefix}.sketch.read",
                           self.read_sketch)
            metrics.attach(f"{self._metrics_prefix}.sketch.write",
                           self.write_sketch)
            # One shared interleave counter across channels/subsystems.
            self._overlap_counter: Counter | None = (
                metrics.counter("sched.interleave.overlap_ns"))
            self._skip_counters: typing.Dict[str, Counter] | None = {
                skip: metrics.counter(
                    f"{self._metrics_prefix}.phase_skip.{skip}")
                for skip in ("pre_active", "activate")
            }
            self._bus_counter: Counter | None = metrics.counter(
                f"{self._metrics_prefix}.bus_busy_ns")
            # RAB/RDB pair occupancy across the channel's modules: the
            # time-weighted series is the "RDB occupancy" gauge, the
            # static gauge is its ceiling.
            pairs = metrics.series(f"{self._metrics_prefix}.pairs_in_use")
            self._pairs_series = pairs
            metrics.gauge(f"{self._metrics_prefix}.pair_capacity",
                          float(pair_count * len(self.modules)))
            sampler = sim.sampler
            if isinstance(sampler, Sampler):
                # Windowed RAB/RDB pair occupancy: the time-weighted
                # mean of the series above per sampling window.
                sampler.track(f"{self._metrics_prefix}.window.pairs_in_use",
                              pairs)
        else:
            self._overlap_counter = None
            self._skip_counters = None
            self._bus_counter = None
            self._pairs_series = None
        self._pairs_in_use = 0
        self._telemetry_on = metrics.enabled or sim.tracer.enabled
        self._bus_track = f"ch{channel_id}.bus"

    @property
    def phase_skips(self) -> typing.Dict[str, int]:
        """Addressing phases skipped so far, by phase."""
        return {"pre_active": self.rab_hits + self.rdb_hits,
                "activate": self.rdb_hits}

    # ------------------------------------------------------------------
    # Public API: chunk execution processes
    # ------------------------------------------------------------------
    def execute_chunks(self, chunks: typing.Sequence[ChunkPlan]
                       ) -> typing.Generator:
        """Process body: run this channel's chunks under the policy.

        Returns ``(request offset, data)`` pairs — one per chunk, data
        ``b""`` for writes — so the subsystem can reassemble a
        multi-stripe request in address order rather than channel
        order.
        """
        if self._interleaves:
            ordered = yield self._start_chunks(chunks)
        else:
            # Noop scheduling: one request owns the channel at a time.
            # Within the request, chunks still fan out across modules —
            # the 32-bytes-per-bank striping is the device's lockstep
            # nature, not a scheduling decision.
            lock = self._serial_lock.request()
            yield lock
            try:
                ordered = yield self._start_chunks(chunks)
            finally:
                self._serial_lock.release(lock)
        return ordered

    def _start_chunks(self, chunks: typing.Sequence[ChunkPlan]) -> Join:
        """One child process per chunk, started in chunk order in this
        step; the join yields their results in chunk order."""
        return self.sim.fork_join([
            self._write_chunk(chunk) if chunk.request.op is _WRITE
            else self._read_chunk(chunk)
            for chunk in chunks])

    def prefetch_hints(self) -> typing.Generator:
        """Process body: drain the write-hint store by pre-RESETting.

        Pre-resets fan out across modules (each module's overlay window
        is independent) so draining keeps pace with kernel execution —
        Section V-A wants the resets done "before completing the
        corresponding computation".  Only effective under a
        pre-resetting policy; a no-op otherwise.
        """
        if not self._pre_resets:
            return
        per_module: typing.Dict[int, typing.List[_HintChunk]] = {}
        while True:
            hint = self.hints.pop()
            if hint is None:
                break
            address, size, registered_at = hint
            for pram_address, _, chunk_size in self.address_map.iter_rows(
                    address, size):
                if pram_address.channel != self.channel_id:
                    continue
                per_module.setdefault(pram_address.module, []).append(
                    (pram_address, chunk_size, registered_at))
        if not per_module:
            return
        yield self.sim.fork_join([self._reset_worker(chunks)
                                  for chunks in per_module.values()])

    def _reset_worker(self, chunks: typing.List[_HintChunk]
                      ) -> typing.Generator:
        """Serially pre-reset one module's hinted chunks.

        Each pre-reset stays a process of its own: run inline, it
        moves the endurance sweep's results (DESIGN §6.1).
        """
        for pram_address, chunk_size, registered_at in chunks:
            yield self.sim.process(  # noqa: SIM008 - order-bearing
                self._pre_reset(pram_address, chunk_size, registered_at))

    # ------------------------------------------------------------------
    # Chunk state machines
    # ------------------------------------------------------------------
    # Each chunk runs as one flat generator.  Every resume of a chunk
    # costs one frame, not one per helper layer, so the bus holds are
    # written out in place: claim the bus for the hold's length, wake
    # once at its end, then release it.  Observation work (the bus
    # span, the burst overlap, the array windows, the per-chunk
    # sketches) runs only under telemetry, so an untraced chunk pays
    # for the model alone.  Only the fault and wear-leveling paths,
    # which few chunks take, delegate to sub-generators.
    def _read_chunk(self, chunk: ChunkPlan) -> typing.Generator:
        """Process body: one read chunk, pair probe to data burst."""
        sim = self.sim
        start = sim.now
        tracer = sim.tracer
        address = chunk.address
        index = address.module
        module = self.modules[index]
        partition = address.partition
        row = address.row
        if self._remaps_rows:
            row = self._physical_row(index, partition, row)
        # address_map.split_row(row) written out.
        if not 0 <= row < self._rows:
            raise AddressError(f"row {row} out of range")
        upper = row >> self._lower_bits
        lower = row & self._lower_mask
        req = chunk.request.request_id

        # Own one RAB/RDB pair for the whole probe→burst span.  Without
        # this, pipelined reads that share a pair (e.g. every chunk
        # RAB-hitting pair 0) re-activate over an RDB whose burst has
        # not happened yet and stream the wrong row.
        slots = self._pair_slots[index]
        slot = slots.request()
        yield slot
        if self._pairs_series is not None:
            self._pairs_in_use += 1
            self._pairs_series.record(sim.now, float(self._pairs_in_use))
        busy = self._busy_pairs[index]
        # No yield between the grant above and the add below, so the
        # probe and the reservation are atomic under cooperative
        # scheduling.  Pairs in `busy` are owned by an in-flight chunk:
        # their RDB is about to be overwritten, so neither their
        # contents nor the pair itself can be used.
        buffer_id, need_pre_active, need_activate = module.buffers.probe(
            partition, row, upper, chunk.buffer_id, busy,
            self.phase_skipping)
        if not need_pre_active:
            if need_activate:
                self.rab_hits += 1
            else:
                self.rdb_hits += 1
            if self._skip_counters is not None:
                self._count_skip(partition, rdb=not need_activate)
        busy.add(buffer_id)
        try:
            paused = False
            if (self.write_pausing and need_activate
                    and module.program_in_flight(partition, sim.now)):
                paused = module.pause_program(partition, sim.now,
                                              PAUSE_RESUME_PENALTY_NS)
                if paused:
                    self.pauses_issued += 1

            if need_activate:  # a pre-active always comes with one
                # Command packets go over the shared bus; the array
                # phases themselves run inside the module without
                # holding the bus.  phy.command_cost(packets) written
                # out: one tCK per packet.
                packets = 2 if need_pre_active else 1
                self.phy.packets_sent += packets
                duration = packets * self._tck
                if duration > 0:
                    grant = self.bus.request(hold=duration)
                    try:
                        yield grant
                    except BaseException:
                        self.bus.release(grant)
                        raise
                    if self._telemetry_on:
                        self._note_bus_hold(grant, "cmd", req=req)
                    self.bus.release(grant)
                now = sim.now
                if need_pre_active:
                    if tracer.enabled:
                        self._observe(Command.PRE_ACTIVE, index,
                                      buffer_id=buffer_id, upper_row=upper)
                    finish = module.pre_active(now, buffer_id, upper)
                    if tracer.enabled:
                        tracer.emit("pre_active",
                                    self._partition_track(index, partition),
                                    now, finish, buffer=buffer_id,
                                    upper_row=upper, req=req)
                    now = finish
                if tracer.enabled:
                    self._observe(Command.ACTIVATE, index,
                                  buffer_id=buffer_id,
                                  partition=partition, row=row,
                                  upper_row=upper, lower_row=lower,
                                  skipped_pre_active=not need_pre_active)
                finish = module.activate(now, buffer_id, partition, lower)
                if tracer.enabled:
                    tracer.emit("activate",
                                self._partition_track(index, partition),
                                now, finish, buffer=buffer_id, row=row,
                                req=req)
                now = finish
                # Record the array-busy window before sleeping on it, so
                # a concurrent burst on another partition can see the
                # overlap.
                if self._telemetry_on:
                    self._note_array_window(index, partition, sim.now, now)
                if now > sim.now:
                    yield sim.timeout(now - sim.now)
            if paused:
                # The read has its row; the program picks back up while
                # the burst streams over the bus.
                module.resume_program(partition, sim.now)

            # The data burst occupies the bus for preamble + burst time.
            if tracer.enabled:
                self._observe(Command.READ_BURST, index,
                              buffer_id=buffer_id, partition=partition,
                              row=row, skipped_pre_active=not need_pre_active,
                              skipped_activate=not need_activate)
            finish, data = module.read_burst(
                sim.now, buffer_id, address.column, chunk.size)
            # Consume the fault record synchronously (no yield since the
            # burst) so concurrent chunks never see each other's flips.
            fault_bits = (module.take_read_fault()
                          if self.faults is not None else ())
            duration = finish - sim.now
            if duration > 0:
                grant = self.bus.request(hold=duration)
                try:
                    yield grant
                except BaseException:
                    self.bus.release(grant)
                    raise
                if self._telemetry_on:
                    self._note_bus_hold(grant, "read_burst",
                                        array_key=(index, partition),
                                        module=index, partition=partition,
                                        row=row, req=req)
                self.bus.release(grant)
            if fault_bits and self.faults is not None:
                decoded = secded_decode(data, fault_bits)
                data = decoded.data
                self.datapath.record_ecc(decoded.corrected_bits,
                                         decoded.uncorrectable_codewords)
                self.faults.note_ecc(decoded.corrected_bits,
                                     decoded.uncorrectable_codewords)
                if decoded.uncorrectable_codewords:
                    chunk.request.degrade(
                        RequestStatus.DEGRADED,
                        f"uncorrectable read error in ch{self.channel_id}."
                        f"m{index}.p{partition} row {row}")
                else:
                    chunk.request.degrade(RequestStatus.CORRECTED)
            # datapath.stage_load(data) written out.
            if not 0 < len(data) <= Datapath.REGISTER_BYTES:
                self.datapath.stage_load(data)  # raises the operand error
            self.datapath._load_register = data.ljust(
                Datapath.REGISTER_BYTES, b"\x00")
            self.datapath.bytes_read += len(data)
        finally:
            busy.discard(buffer_id)
            slots.release(slot)
            if self._pairs_series is not None:
                self._pairs_in_use -= 1
                self._pairs_series.record(sim.now,
                                          float(self._pairs_in_use))
        self.read_latency.add(sim.now - start)
        if self._metrics_on:
            self.read_sketch.add(sim.now - start)
        self.chunks_read += 1
        if tracer.enabled:
            tracer.emit("read_chunk", f"ch{self.channel_id}.inflight",
                        start, sim.now, asynchronous=True,
                        module=index, partition=partition, req=req)
        return (chunk.offset, data)

    def _write_chunk(self, chunk: ChunkPlan) -> typing.Generator:
        """Process body: one write chunk, stage to write recovery."""
        sim = self.sim
        start = sim.now
        tracer = sim.tracer
        address = chunk.address
        index = address.module
        module = self.modules[index]
        # chunk.payload written out.
        assert chunk.request.data is not None  # MemoryRequest validation
        payload = chunk.request.data[chunk.offset:chunk.offset + chunk.size]

        partition = address.partition
        row = address.row
        if self._remaps_rows:
            row = self._physical_row(index, partition, row)
        req = chunk.request.request_id
        lock = self._window_locks[index]
        window = lock.request()
        yield window
        try:
            # datapath.stage_store(payload) written out.
            if not 0 < len(payload) <= Datapath.REGISTER_BYTES:
                self.datapath.stage_store(payload)  # raises the operand error
            self.datapath._store_register = payload.ljust(
                Datapath.REGISTER_BYTES, b"\x00")
            self.datapath.bytes_written += len(payload)
            # Register pokes + payload burst into the program buffer all
            # travel over the shared bus.
            if tracer.enabled:
                self._observe(Command.STAGE_PROGRAM, index,
                              partition=partition, row=row)
            stage_finish = module.stage_program(
                sim.now, partition, row, address.column, payload)
            duration = stage_finish - sim.now
            if duration > 0:
                grant = self.bus.request(hold=duration)
                try:
                    yield grant
                except BaseException:
                    self.bus.release(grant)
                    raise
                if self._telemetry_on:
                    self._note_bus_hold(grant, "stage_program",
                                        module=index, partition=partition,
                                        req=req)
                self.bus.release(grant)
            # The array program frees the bus but occupies the partition
            # and the module's overlay window until completion.  The
            # wait re-checks the partition clock because write pausing
            # can extend an in-flight program.
            if tracer.enabled:
                self._observe(Command.EXECUTE_PROGRAM, index,
                              partition=partition, row=row)
            module.execute_program(sim.now, req=req)
            failures = (module.take_program_failures()
                        if self.faults is not None else [])
            if self._telemetry_on:
                self._note_array_window(index, partition, sim.now,
                                        module.partition_ready_at(partition))
            while True:
                ready = module.partition_ready_at(partition)
                if ready <= sim.now:
                    break
                yield sim.timeout(ready - sim.now)
            recovery = module.timing.write_recovery_ns
            if recovery > 0:
                recovery_start = sim.now
                yield sim.timeout(recovery)
                if tracer.enabled:
                    tracer.emit("write_recovery",
                                self._partition_track(index, partition),
                                recovery_start, sim.now,
                                module=index, partition=partition,
                                req=req)
            if failures:
                yield from self._verify_and_retry(
                    chunk, module, index, partition, row, failures, req)
            if self.wear_leveling:
                yield from self._account_write(index, partition)
        finally:
            lock.release(window)
        self.write_latency.add(sim.now - start)
        if self._metrics_on:
            self.write_sketch.add(sim.now - start)
        self.chunks_written += 1
        if tracer.enabled:
            tracer.emit("write_chunk", f"ch{self.channel_id}.inflight",
                        start, sim.now, asynchronous=True,
                        module=index, partition=partition, req=req)
        return (chunk.offset, b"")

    def _pre_reset(self, address: PramAddress, size: int,
                   registered_at: float = float("inf")
                   ) -> typing.Generator:
        """Background all-zero program of one row chunk (Section V-A)."""
        sim = self.sim
        module = self.modules[address.module]
        if self.wear_leveling:
            # Rebind to the current physical row.
            address = address._replace(row=self._physical_row(
                address.module, address.partition, address.row))
        # Skip rows that are already pristine: resetting them would
        # waste endurance and bus time for no latency benefit.
        if not module.program_needs_reset(
                address.partition, address.row, address.column, size):
            return
        # Skip rows rewritten since the hint was registered: the data
        # there is *new* output, not the stale copy the hint targeted.
        if module.last_program_time(address.partition,
                                    address.row) > registered_at:
            return
        # Opportunistic only: if a real write holds or waits on this
        # module's overlay window, stand down — delaying a write by a
        # RESET pass costs exactly what the pre-reset would save.
        lock = self._window_locks[address.module]
        if lock.count > 0 or lock.queue_length > 0:
            return
        window = lock.request()
        yield window
        try:
            # Re-check under the window lock: a write may have landed
            # while this pre-reset waited.
            if module.last_program_time(address.partition,
                                        address.row) > registered_at:
                return
            tracer = sim.tracer
            if tracer.enabled:
                self._observe(Command.STAGE_PROGRAM, address.module,
                              partition=address.partition, row=address.row)
            stage_finish = module.stage_program(
                sim.now, address.partition, address.row,
                address.column, bytes(size), command=CMD_SELECTIVE_ERASE)
            duration = stage_finish - sim.now
            if duration > 0:
                grant = self.bus.request(hold=duration)
                try:
                    yield grant
                except BaseException:
                    self.bus.release(grant)
                    raise
                if self._telemetry_on:
                    self._note_bus_hold(grant, "stage_reset",
                                        module=address.module,
                                        partition=address.partition)
                self.bus.release(grant)
            if tracer.enabled:
                self._observe(Command.EXECUTE_PROGRAM, address.module,
                              partition=address.partition, row=address.row)
            finish = module.execute_program(sim.now)
            if self._telemetry_on:
                self._note_array_window(address.module, address.partition,
                                        sim.now, finish)
            yield sim.timeout(finish - sim.now)
            self.pre_resets_issued += 1
        finally:
            lock.release(window)

    # ------------------------------------------------------------------
    # Program-and-verify resilience (repro.faults)
    # ------------------------------------------------------------------
    def _verify_and_retry(self, chunk: ChunkPlan, module: PramModule,
                          index: int, partition: int, row: int,
                          failures: typing.List[typing.Tuple[int, int]],
                          req: int) -> typing.Generator:
        """Bounded retry loop over a chunk's verify-failed words.

        Each pass re-senses the row (the verify read), waits the
        configured backoff, then re-issues a SET-only program covering
        just the failed words — the selective-erasing asymmetry applied
        to recovery.  Rows that exhaust every retry are retired.
        """
        faults = self.faults
        assert faults is not None  # caller guards
        config = faults.config
        payload = chunk.payload
        word_bytes = module.geometry.word_bytes
        attempts = 0
        while failures and attempts < config.max_program_retries:
            attempts += 1
            faults.note_retry()
            # Verify read: sense the row in-module, then let the cells
            # settle for the configured backoff before re-pulsing.
            verify_start = self.sim.now
            yield self.sim.timeout(module.timing.activate()
                                   + config.retry_backoff_ns)
            tracer = self.sim.tracer
            if tracer.enabled:
                tracer.emit("verify_read",
                            self._partition_track(index, partition),
                            verify_start, self.sim.now, module=index,
                            partition=partition, row=row,
                            attempt=attempts, req=req)
            # Re-program the contiguous word span covering the failed
            # words with the bytes the original program intended.
            words = sorted({word for _, word in failures})
            first, last = words[0], words[-1]
            row_data = bytearray(module.peek(partition, row))
            if payload is not None:
                row_data[chunk.address.column:
                         chunk.address.column + len(payload)] = payload
            retry_payload = bytes(
                row_data[first * word_bytes:(last + 1) * word_bytes])
            self._observe(Command.STAGE_PROGRAM, index,
                          partition=partition, row=row)
            stage_finish = module.stage_program(
                self.sim.now, partition, row, first * word_bytes,
                retry_payload, command=CMD_RETRY_PROGRAM)
            duration = stage_finish - self.sim.now
            if duration > 0:
                grant = self.bus.request(hold=duration)
                try:
                    yield grant
                except BaseException:
                    self.bus.release(grant)
                    raise
                if self._telemetry_on:
                    self._note_bus_hold(grant, "stage_program",
                                        module=index, partition=partition,
                                        req=req)
                self.bus.release(grant)
            self._observe(Command.EXECUTE_PROGRAM, index,
                          partition=partition, row=row)
            module.execute_program(self.sim.now, req=req)
            failures = module.take_program_failures()
            while True:
                ready = module.partition_ready_at(partition)
                if ready <= self.sim.now:
                    break
                yield self.sim.timeout(ready - self.sim.now)
        if failures:
            faults.note_retries_exhausted()
            yield from self._retire_row(chunk, module, index, partition,
                                        row, req)

    def _retire_row(self, chunk: ChunkPlan, module: PramModule,
                    index: int, partition: int, row: int,
                    req: int) -> typing.Generator:
        """Remap an unrecoverable row onto a spare, moving its data.

        With no spare left the request completes ``FAILED`` — degraded
        service, not a crashed event loop.
        """
        faults = self.faults
        assert faults is not None  # caller guards
        retirement = self._retirement
        spare = (retirement.retire(index, partition, row)
                 if retirement is not None else None)
        if spare is None:
            faults.note_retire_failed()
            # No spare left is a *permanent* failure: replaying the
            # request hits the same worn row with the same empty spare
            # pool, so upstream retry layers must not spend budget on it.
            chunk.request.fault_permanent = True
            chunk.request.degrade(
                RequestStatus.FAILED,
                f"row {row} unrecoverable and no spare left in "
                f"ch{self.channel_id}.m{index}.p{partition}")
            return
        start = self.sim.now
        # Build the repaired row image (current bytes with the chunk
        # payload overlaid) and program it into the spare: one sense of
        # the bad row, then a normal full-row program.
        row_data = bytearray(module.peek(partition, row))
        payload = chunk.payload
        if payload is not None:
            row_data[chunk.address.column:
                     chunk.address.column + len(payload)] = payload
        yield self.sim.timeout(module.timing.activate())
        self._observe(Command.STAGE_PROGRAM, index,
                      partition=partition, row=spare)
        stage_finish = module.stage_program(
            self.sim.now, partition, spare, 0, bytes(row_data))
        duration = stage_finish - self.sim.now
        if duration > 0:
            grant = self.bus.request(hold=duration)
            try:
                yield grant
            except BaseException:
                self.bus.release(grant)
                raise
            if self._telemetry_on:
                self._note_bus_hold(grant, "stage_program",
                                    module=index, partition=partition,
                                    req=req)
            self.bus.release(grant)
        self._observe(Command.EXECUTE_PROGRAM, index,
                      partition=partition, row=spare)
        module.execute_program(self.sim.now, req=req)
        spare_failures = module.take_program_failures()
        while True:
            ready = module.partition_ready_at(partition)
            if ready <= self.sim.now:
                break
            yield self.sim.timeout(ready - self.sim.now)
        faults.note_row_retired()
        tracer = self.sim.tracer
        if tracer.enabled:
            tracer.emit("remap_program",
                        self._partition_track(index, partition),
                        start, self.sim.now, module=index,
                        partition=partition, row=row, spare=spare,
                        req=req)
        if spare_failures:
            # The spare misbehaved on its very first program; its data
            # is partial, so the write is lossy but still placed.
            chunk.request.degrade(
                RequestStatus.DEGRADED,
                f"spare row {spare} failed verify after retiring "
                f"row {row}")

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def _count_skip(self, partition: int, rdb: bool) -> None:
        """Count one phase skip into the metrics registry (called only
        while one is attached): an RDB hit skips the pre-active and the
        activate, an RAB hit the pre-active."""
        assert self._skip_counters is not None
        self._skip_counters["pre_active"].add()
        if rdb:
            self._skip_counters["activate"].add()
        hit = "rdb_hits" if rdb else "rab_hits"
        self._metrics.counter(
            f"{self._metrics_prefix}.part{partition}.{hit}").add()

    def _physical_row(self, module_index: int, partition: int,
                      logical_row: int) -> int:
        """Translate through start-gap, then through bad-row retirement.

        Retirement comes second: it remaps *physical* rows, so a
        retired row stays retired no matter where the gap rotation
        later lands a logical row.
        """
        row = logical_row
        if self.wear_leveling:
            row = self._mapper(module_index, partition).map(row)
        if self._retirement is not None:
            row = self._retirement.translate(module_index, partition, row)
        return row

    def _mapper(self, module_index: int,
                partition: int) -> StartGapMapper:
        key = (module_index, partition)
        mapper = self._mappers.get(key)
        if mapper is None:
            lines = self.modules[module_index].geometry.rows_per_partition - 1
            if self._retirement is not None:
                # The spare region sits outside the start-gap rotation.
                lines = max(1, lines - self._retirement.spare_rows)
            mapper = StartGapMapper(
                lines, gap_write_interval=self._gap_write_interval)
            self._mappers[key] = mapper
        return mapper

    def _account_write(self, module_index: int,
                       partition: int) -> typing.Generator:
        """Wear-leveling bookkeeping after a program; may move the gap.

        Writes call it only with wear leveling on.  The gap move (read
        the source row, program it into the old gap line) runs inline
        under the already-held window lock — an amortized 1/ψ overhead
        per write.
        """
        move = self._mapper(module_index, partition).record_write()
        if move is None:
            return
        module = self.modules[module_index]
        data = module.peek(partition, move.source)
        # Sensing the source row costs an activate; then a normal
        # program into the destination.
        yield self.sim.timeout(module.timing.activate())
        self._observe(Command.STAGE_PROGRAM, module_index,
                      partition=partition, row=move.destination)
        stage_finish = module.stage_program(
            self.sim.now, partition, move.destination, 0, data)
        duration = stage_finish - self.sim.now
        if duration > 0:
            grant = self.bus.request(hold=duration)
            try:
                yield grant
            except BaseException:
                self.bus.release(grant)
                raise
            if self._telemetry_on:
                self._note_bus_hold(grant)
            self.bus.release(grant)
        self._observe(Command.EXECUTE_PROGRAM, module_index,
                      partition=partition, row=move.destination)
        finish = module.execute_program(self.sim.now)
        yield self.sim.timeout(finish - self.sim.now)
        self.gap_moves += 1

    def _observe(self, command: Command, module_index: int,
                 **fields: typing.Any) -> None:
        """Report one command to the tracer (the conformance trace)."""
        tracer = self.sim.tracer
        if tracer.enabled:
            tracer.command(CommandRecord(
                time=self.sim.now, channel=self.channel_id,
                module=module_index, command=command, **fields))

    def _partition_track(self, module_index: int, partition: int) -> str:
        """Trace-track name of one partition's array lane."""
        return f"ch{self.channel_id}.m{module_index}.p{partition}"

    def _note_array_window(self, module_index: int, partition: int,
                           start: float, end: float) -> None:
        """Remember an array-busy window for burst-overlap accounting.

        Called only under telemetry.  Windows are pruned lazily with a
        generous horizon (bursts last tens of ns, the horizon is
        10 µs), so a burst already in flight never loses a window it
        still overlaps.
        """
        if end <= start:
            return
        windows = self._array_windows
        if len(windows) > 64:
            floor = self.sim.now - 10_000.0
            windows = [w for w in windows if w[1] > floor]
            self._array_windows = windows
        windows.append((start, end, (module_index, partition)))

    def _array_overlap(self, array_key: typing.Tuple[int, int],
                       start: float, end: float) -> float:
        """Union length of other-partition array windows inside [start, end].

        This is the Figure 12 quantity: bus time of one chunk's RDB
        burst hidden under another chunk's array access on a different
        (module, partition).
        """
        clipped = []
        for win_start, win_end, key in self._array_windows:
            if key == array_key or win_end <= start or win_start >= end:
                continue
            clipped.append((max(win_start, start), min(win_end, end)))
        if not clipped:
            return 0.0
        clipped.sort()
        total = 0.0
        merged_start, merged_end = clipped[0]
        for piece_start, piece_end in clipped[1:]:
            if piece_start > merged_end:
                total += merged_end - merged_start
                merged_start, merged_end = piece_start, piece_end
            else:
                merged_end = max(merged_end, piece_end)
        total += merged_end - merged_start
        return total

    def _note_bus_hold(self, grant: Request, span_name: str | None = None,
                       array_key: typing.Tuple[int, int] | None = None,
                       module: int | None = None,
                       partition: int | None = None,
                       row: int | None = None,
                       req: int | None = None) -> None:
        """Account one finished bus hold; called only under telemetry.

        Every bus holder calls this when its hold claim ``grant``
        fires, before it releases the bus: the hold of ``grant.hold``
        ns that began at ``grant.start`` has just ended.  ``span_name``
        labels the hold on the bus trace track (None: no span);
        ``array_key`` marks a read burst whose overlap with other
        partitions' array windows is accounted (Figure 12).  The
        non-None span fields become the span's arguments, in the order
        of the parameters.
        """
        start, duration = grant.start, grant.hold
        assert start is not None and duration is not None  # a hold claim
        if self._bus_counter is not None:
            self._bus_counter.add(duration)
        if span_name is None:
            return
        end = self.sim.now
        # Overlap is computed before the span goes out so the burst
        # span carries its own credit: per-request credits then sum to
        # sched.interleave.overlap_ns by identity, not by re-derivation.
        overlap = 0.0
        if array_key is not None:
            overlap = self._array_overlap(array_key, start, end)
            if overlap > 0.0:
                self.overlap_ns += overlap
                if self._overlap_counter is not None:
                    self._overlap_counter.add(overlap)
        tracer = self.sim.tracer
        if tracer.enabled:
            fields = (("module", module), ("partition", partition),
                      ("row", row), ("req", req))
            args: typing.Dict[str, typing.Any] = {
                key: value for key, value in fields if value is not None}
            if array_key is not None:
                args["overlap"] = overlap
            tracer.emit(span_name, self._bus_track, start, end, **args)
