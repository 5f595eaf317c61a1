"""The two-channel PRAM subsystem the accelerator's MCU talks to.

This is the top of the FPGA: it owns one
:class:`~repro.controller.channel.ChannelController` per LPDDR2-NVM
channel, splits incoming requests across them, and optionally routes
every request through the firmware baseline first.
"""

from __future__ import annotations

import typing

from repro.controller.channel import ChannelController
from repro.controller.firmware import FirmwareModel
from repro.controller.initializer import Initializer
from repro.controller.request import MemoryRequest, Op, RequestStatus
from repro.controller.scheduler import SchedulerPolicy, WriteHintStore
from repro.controller.translator import AccessPlanner
from repro.controller.wear_level import DEFAULT_GAP_WRITE_INTERVAL
from repro.faults.plan import FaultConfig, FaultState
from repro.pram.address import AddressMap
from repro.pram.constants import PramGeometry, PramTimingParams
from repro.pram.errors import PramError
from repro.pram.module import PramModule
from repro.sim import Simulator
from repro.sim.stats import LatencySketch
from repro.telemetry.metrics import current_metrics
from repro.telemetry.timeseries import Sampler

# Enum members bound once: reading one per request costs more than a
# global lookup.
_READ = Op.READ
_WRITE = Op.WRITE
_OK = RequestStatus.OK


class PramSubsystem:
    """Hardware-automated PRAM memory subsystem (Figure 6's FPGA half)."""

    def __init__(self, sim: Simulator,
                 geometry: PramGeometry = PramGeometry(),
                 params: PramTimingParams = PramTimingParams(),
                 policy: SchedulerPolicy = SchedulerPolicy.FINAL,
                 phase_skipping: bool = True,
                 firmware: FirmwareModel | None = None,
                 wear_leveling: bool = False,
                 gap_write_interval: int = DEFAULT_GAP_WRITE_INTERVAL,
                 write_pausing: bool = False,
                 faults: FaultConfig | None = None) -> None:
        self.sim = sim
        self.geometry = geometry
        self.params = params
        self.policy = policy
        self.address_map = AddressMap(geometry)
        self.planner = AccessPlanner(self.address_map)
        self.hint_stores = [WriteHintStore() for _ in range(geometry.channels)]
        self.firmware = firmware
        # Optional fault injection (repro.faults): one shared state so
        # counters aggregate subsystem-wide; decisions stay per-site.
        self.fault_config = faults
        self.faults = FaultState(faults) if faults is not None else None
        self.modules = [
            [PramModule(geometry, params, channel_id=ch, module_id=m,
                        faults=self.faults)
             for m in range(geometry.modules_per_channel)]
            for ch in range(geometry.channels)
        ]
        self.channels = [
            ChannelController(
                sim, self.modules[ch], policy=policy,
                address_map=self.address_map,
                phase_skipping=phase_skipping,
                hint_store=self.hint_stores[ch], channel_id=ch,
                wear_leveling=wear_leveling,
                gap_write_interval=gap_write_interval,
                write_pausing=write_pausing,
                faults=self.faults)
            for ch in range(geometry.channels)
        ]
        self.boot_latency_ns = Initializer().boot(
            [m for channel in self.modules for m in channel])
        self.requests_completed = 0
        self.requests_degraded = 0
        self.requests_failed = 0
        self._inflight = 0
        # Per-op tail-latency sketches are **always on**: one frexp +
        # dict update per request, and they are what lets the fig13
        # benchmarks (which run without a metrics registry) report
        # p50/p99/p999 alongside bandwidth.
        self.latency_sketches = {
            Op.READ.value: LatencySketch("subsys.sketch.read"),
            Op.WRITE.value: LatencySketch("subsys.sketch.write"),
        }
        self._read_sketch = self.latency_sketches[Op.READ.value]
        self._write_sketch = self.latency_sketches[Op.WRITE.value]
        metrics = current_metrics()
        self._metrics = metrics
        self._metrics_on = metrics.enabled
        if self._metrics_on:
            prefix = metrics.component_prefix("subsys")
            self._metrics_prefix = prefix
            self.queue_depth = metrics.series(f"{prefix}.queue_depth")
            self.request_latency = metrics.histogram(
                f"{prefix}.request_latency_ns")
            for op, sketch in self.latency_sketches.items():
                metrics.attach(f"{prefix}.sketch.{op}", sketch)
            sampler = sim.sampler
            if isinstance(sampler, Sampler):
                # Windowed time-weighted occupancy: in-flight requests
                # and per-channel write-hint backlog per sample window.
                sampler.track(f"{prefix}.window.inflight",
                              self.queue_depth)
                for ch, store in enumerate(self.hint_stores):
                    sampler.watch_gauge(
                        f"{prefix}.window.hints_ch{ch}", store.depth)

    # ------------------------------------------------------------------
    # MCU-facing API
    # ------------------------------------------------------------------
    def submit(self, request: MemoryRequest) -> typing.Generator:
        """Process body: service one memory request to completion.

        Returns the read data (b"" for writes).  Chunks are fanned out
        to their channels; channels proceed independently.
        """
        request.submit_time = self.sim.now
        self._inflight += 1
        if self._metrics_on:
            self.queue_depth.record(self.sim.now, float(self._inflight))
        if self.firmware is not None:
            # A process of its own: run inline, admission moves the
            # firmware system's results (DESIGN §6.1).
            yield self.sim.process(  # noqa: SIM008 - order-bearing
                self.firmware.admit())
        by_channel = self.planner.chunks_by_channel(request)
        # Each channel's chunks start in this step, channel by channel;
        # the join yields each channel's results in channel order.
        # Device-model errors (protocol violations, address faults) are
        # contained here: the request completes FAILED instead of the
        # exception tearing through the event loop and killing
        # unrelated in-flight processes.
        failure: PramError | None = None
        results: typing.List[typing.Any] = []
        try:
            results = yield self.sim.fork_join([
                self.channels[ch].execute_chunks(chunks)
                for ch, chunks in sorted(by_channel.items())])
        except PramError as exc:
            failure = exc
        request.complete_time = self.sim.now
        if failure is not None:
            # Device-model errors are deterministic for a given request
            # (bad address, protocol violation): mark them permanent so
            # the service layer's retry path never replays them.
            request.fault_permanent = True
            request.degrade(RequestStatus.FAILED,
                            f"{type(failure).__name__}: {failure}")
        op = request.op
        if op is _READ:
            self._read_sketch.add(request.latency)
        elif op is _WRITE:
            self._write_sketch.add(request.latency)
        self._inflight -= 1
        if self._metrics_on:
            self.queue_depth.record(self.sim.now, float(self._inflight))
            self.request_latency.add(request.latency)
        status = request.status
        if status is not _OK:
            if status is RequestStatus.FAILED:
                self.requests_failed += 1
            elif status is RequestStatus.DEGRADED:
                self.requests_degraded += 1
            if self.faults is not None:
                if status is RequestStatus.FAILED:
                    self.faults.requests_failed += 1
                elif status is RequestStatus.DEGRADED:
                    self.faults.requests_degraded += 1
                else:
                    self.faults.requests_corrected += 1
            if self._metrics_on:
                self._metrics.counter(
                    f"{self._metrics_prefix}.requests."
                    f"{status.value}").add()
        tracer = self.sim.tracer
        if tracer.enabled:
            # In-flight requests overlap freely, so they export as
            # async slices on one shared track.  The `req` argument keys
            # the attribution pass: hardware spans carrying the same id
            # are this request's critical path.
            span_args: typing.Dict[str, typing.Any] = {
                "address": request.address, "size": request.size,
                "req": request.request_id, "op": request.op.value,
            }
            if status is not RequestStatus.OK:
                span_args["status"] = status.value
            tracer.emit(f"{request.op.value} 0x{request.address:x}",
                        "requests", request.submit_time, self.sim.now,
                        asynchronous=True, **span_args)
        if failure is not None:
            # Reads hand back zero-fill of the requested size so
            # downstream arithmetic degrades instead of crashing.
            request.result = (bytes(request.size)
                              if op is _READ else b"")
        else:
            # Channels return (request offset, data) pairs; reassemble
            # in address order — a request larger than one stripe
            # interleaves back and forth across channels, so
            # channel-major concatenation would misorder it.
            pieces = [piece for result in results for piece in result]
            pieces.sort(key=lambda piece: piece[0])
            request.result = b"".join(data for _, data in pieces)
        self.requests_completed += 1
        if request.done is not None:
            request.done.succeed(request.result)
        return request.result

    def read(self, address: int, size: int) -> typing.Generator:
        """Process body: convenience read returning the data."""
        request = MemoryRequest(_READ, address, size)
        return (yield from self.submit(request))

    def write(self, address: int, data: bytes) -> typing.Generator:
        """Process body: convenience write."""
        request = MemoryRequest(_WRITE, address, len(data), data=data)
        yield from self.submit(request)

    def run_stream(self, requests: typing.Sequence[MemoryRequest], *,
                   mode: str = "open") -> None:
        """Service a request batch to completion.

        ``mode="open"`` submits every request at the current instant
        and lets them overlap; ``mode="closed"`` keeps exactly one in
        flight, submitting the next at the previous completion.  The
        call drains the simulator: on return ``sim.now`` is the last
        completion time.
        """
        if mode not in ("open", "closed"):
            raise ValueError(f"unknown stream mode {mode!r}")
        if mode == "open":
            def driver() -> typing.Generator:
                yield self.sim.fork_join([self.submit(request)
                                          for request in requests])
        else:
            def driver() -> typing.Generator:
                for request in requests:
                    yield from self.submit(request)

        self.sim.process(driver())
        self.sim.run()

    @property
    def inflight(self) -> int:
        """Requests currently between submit and completion."""
        return self._inflight

    @property
    def capacity_hint(self) -> int:
        """Rough concurrent-request capacity of the subsystem.

        One request occupies a channel's bus and module resources; the
        subsystem overlaps roughly one request per (channel, module)
        pair before added requests only deepen queues.  This is a
        *hint* for backpressure normalization, not a hard limit.
        """
        return self.geometry.channels * self.geometry.modules_per_channel

    def backpressure(self) -> float:
        """Submit-side congestion signal in [0, 1].

        The fraction of the subsystem's rough concurrency capacity
        currently occupied by in-flight requests.  The service layer's
        brownout controller folds this into its shed decision so the
        front end reacts to device congestion, not just to its own
        queue occupancy.
        """
        capacity = self.capacity_hint
        if capacity <= 0:
            return 1.0 if self._inflight else 0.0
        return min(1.0, self._inflight / capacity)

    def register_write_hint(self, address: int, size: int) -> None:
        """Announce a region that will soon be overwritten.

        Under a pre-resetting policy the channels RESET those rows in
        the background (call :meth:`drain_hints` or let a system model
        run it alongside compute).  The region is decomposed into
        row-sized hints routed to the owning channel.
        """
        registered_at = self.sim.now
        for pram_address, _, chunk in self.address_map.iter_rows(
                address, size):
            flat = self.address_map.compose(pram_address)
            self.hint_stores[pram_address.channel].add(
                flat, chunk, registered_at=registered_at)

    def drain_hints(self) -> typing.Generator:
        """Process body: run every channel's hint prefetcher to empty."""
        yield self.sim.fork_join([channel.prefetch_hints()
                                  for channel in self.channels])

    def merged_latency_sketch(self) -> LatencySketch:
        """All request latencies (reads + writes) as one sketch.

        A fresh fold of the per-op sketches, so the result carries the
        same layout and exact bucket counts — percentiles over the
        merged population, for reports that want one tail number.
        """
        merged = LatencySketch("subsys.latency")
        for sketch in self.latency_sketches.values():
            merged.merge(sketch)
        return merged

    # ------------------------------------------------------------------
    # Functional access (experiment setup/verification, zero time)
    # ------------------------------------------------------------------
    def preload(self, address: int, data: bytes) -> None:
        """Place ``data`` at ``address`` with no simulated time cost.

        Mirrors the paper's evaluation setup: "we initialize the data
        and place it in the persistent storages" before each run.
        Rows the data covers whole are poked straight from its slice;
        partial first/last rows are read-modify-written functionally.
        A row is its own physical row unless its channel can remap it.
        """
        row_bytes = self.geometry.row_bytes
        modules = self.modules
        channels = self.channels
        for (channel, index, partition, row, column), offset, size in (
                self.address_map.iter_rows(address, len(data))):
            module = modules[channel][index]
            controller = channels[channel]
            if controller._remaps_rows:
                row = controller._physical_row(index, partition, row)
            if size == row_bytes:
                module.poke(partition, row, data[offset:offset + size])
                continue
            updated = bytearray(module.peek(partition, row))
            updated[column:column + size] = data[offset:offset + size]
            module.poke(partition, row, bytes(updated))

    def inspect(self, address: int, size: int) -> bytes:
        """Functional read-back with no simulated time cost."""
        out = bytearray()
        for pram_address, _, chunk in self.address_map.iter_rows(
                address, size):
            module = self.modules[pram_address.channel][pram_address.module]
            physical = self.channels[pram_address.channel]._physical_row(
                pram_address.module, pram_address.partition,
                pram_address.row)
            row = module.peek(pram_address.partition, physical)
            out += row[pram_address.column:pram_address.column + chunk]
        return bytes(out)

    # ------------------------------------------------------------------
    # Aggregate statistics
    # ------------------------------------------------------------------
    def operation_counts(self) -> typing.Dict[str, int]:
        """Device-level operation totals across all modules."""
        totals = {"reads": 0, "programs": 0, "resets": 0, "erases": 0}
        for channel in self.modules:
            for module in channel:
                totals["reads"] += module.reads
                totals["programs"] += module.programs
                totals["resets"] += module.resets
                totals["erases"] += module.erases
        return totals

    def fault_counts(self) -> typing.Dict[str, float]:
        """Injection + resilience counters (empty without a plan)."""
        if self.faults is None:
            return {}
        counts = self.faults.counts()
        counts["requests_completed"] = float(self.requests_completed)
        counts["retry_programs"] = float(sum(
            module.retry_programs
            for channel in self.modules for module in channel))
        return counts

    def mean_read_latency(self) -> float:
        """Mean per-chunk read latency across channels (ns)."""
        samples = [s for ch in self.channels
                   for s in ch.read_latency.samples]
        return sum(samples) / len(samples) if samples else 0.0

    def mean_write_latency(self) -> float:
        """Mean per-chunk write latency across channels (ns)."""
        samples = [s for ch in self.channels
                   for s in ch.write_latency.samples]
        return sum(samples) / len(samples) if samples else 0.0
