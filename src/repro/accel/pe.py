"""The processing-element execution engine.

A PE runs a kernel trace: compute bursts on its functional units,
loads through L1/L2 (misses stall the PE and go to the MCU), stores
through a small store buffer that drains to the MCU in the background
(the PE only stalls when the buffer is full — which is exactly what
happens on slow write media, producing the write-driven IPC collapse
of Figure 19).
"""

from __future__ import annotations

import dataclasses
import typing

from repro.accel.cache import BLOCK_BYTES, L1_HIT_NS, L2_HIT_NS, BlockCache
from repro.accel.functional_unit import FunctionalUnitSet
from repro.accel.isa import ComputeOp, KernelOp, LoadOp, StoreOp
from repro.accel.mcu import MemoryControllerUnit
from repro.sim import Simulator, Store, TimeSeries
from repro.telemetry.metrics import current_metrics
from repro.telemetry.timeseries import Sampler

#: State codes recorded into the activity series.
STATE_SLEEP = 0.0
STATE_IDLE = 1.0
STATE_ACTIVE = 2.0

#: Default store-buffer depth, blocks.
STORE_BUFFER_DEPTH = 4

#: Default cache capacities (Section VI's platform).
L1_BYTES = 64 * 1024
L2_BYTES = 512 * 1024


@dataclasses.dataclass
class PeStats:
    """Per-PE execution statistics."""

    instructions: int = 0
    compute_ns: float = 0.0
    stall_ns: float = 0.0
    loads: int = 0
    stores: int = 0
    l2_miss_ns: float = 0.0
    store_stall_ns: float = 0.0

    @property
    def busy_ns(self) -> float:
        """Compute plus stall time."""
        return self.compute_ns + self.stall_ns


class ProcessingElement:
    """One SIMD core with its private cache hierarchy."""

    def __init__(self, sim: Simulator, pe_id: int,
                 mcu: MemoryControllerUnit,
                 clock_ghz: float = 1.0,
                 l1_bytes: int = L1_BYTES,
                 l2_bytes: int = L2_BYTES,
                 block_bytes: int = BLOCK_BYTES,
                 store_buffer_depth: int = STORE_BUFFER_DEPTH) -> None:
        self.sim = sim
        self.pe_id = pe_id
        self.mcu = mcu
        self.units = FunctionalUnitSet(clock_ghz)
        self.l1 = BlockCache(l1_bytes, block_bytes, hit_ns=L1_HIT_NS,
                             name=f"pe{pe_id}.l1")
        self.l2 = BlockCache(l2_bytes, block_bytes, hit_ns=L2_HIT_NS,
                             name=f"pe{pe_id}.l2")
        self.block_bytes = block_bytes
        self.stats = PeStats()
        self.activity = TimeSeries(f"pe{pe_id}.activity")
        self.ipc_series = TimeSeries(f"pe{pe_id}.ipc")
        self._track = f"pe{pe_id}"
        metrics = current_metrics()
        if metrics.enabled:
            prefix = metrics.component_prefix(f"pe.{pe_id}")
            metrics.attach(f"{prefix}.activity", self.activity)
            metrics.attach(f"{prefix}.ipc", self.ipc_series)
            store_depth = metrics.series(f"{prefix}.store_queue_depth")
            self._store_depth_series: TimeSeries | None = store_depth
            sampler = sim.sampler
            if isinstance(sampler, Sampler):
                # Windowed write pressure: time-weighted mean of the
                # store-buffer backlog per sampling window.
                sampler.track(f"{prefix}.window.store_queue", store_depth)
        else:
            self._store_depth_series = None
        self._state = STATE_SLEEP
        self.activity.record(sim.now, STATE_SLEEP)
        self.ipc_series.record(sim.now, 0.0)
        self._store_queue: Store = Store(sim, capacity=store_buffer_depth,
                                         name=f"pe{pe_id}.stores")
        self._outstanding_stores = 0
        self._drained_event = None
        sim.process(self._store_drainer(), name=f"pe{pe_id}.drainer")

    # ------------------------------------------------------------------
    # Kernel execution
    # ------------------------------------------------------------------
    def run_kernel(self, ops: typing.Sequence[KernelOp]) -> typing.Generator:
        """Process body: execute a kernel trace to completion."""
        self._set_state(STATE_IDLE)
        for op in ops:
            if isinstance(op, ComputeOp):
                yield from self._compute(op)
            elif isinstance(op, LoadOp):
                yield from self._load(op)
            elif isinstance(op, StoreOp):
                yield from self._store(op)
            else:
                raise TypeError(f"unknown kernel op: {op!r}")
        yield from self._drain_stores()
        self._set_state(STATE_IDLE)

    # ------------------------------------------------------------------
    # Operation handlers
    # ------------------------------------------------------------------
    def _compute(self, op: ComputeOp) -> typing.Generator:
        self._set_state(STATE_ACTIVE)
        duration = self.units.burst_time_ns(op.scalar_ops,
                                            op.dsp_intrinsics)
        ipc = op.scalar_ops / max(1.0, duration / self.units.cycle_ns)
        self.ipc_series.record(self.sim.now, ipc)
        start = self.sim.now
        yield self.sim.timeout(duration)
        self.ipc_series.record(self.sim.now, 0.0)
        self.stats.instructions += op.scalar_ops
        self.stats.compute_ns += duration
        tracer = self.sim.tracer
        if tracer.enabled:
            tracer.emit("compute", self._track, start, self.sim.now,
                        ops=op.scalar_ops)

    def _load(self, op: LoadOp) -> typing.Generator:
        self.stats.loads += 1
        self.stats.instructions += 1
        block = self.l1.block_of(op.address)
        if self.l1.lookup(block):
            self._set_state(STATE_ACTIVE)
            yield self.sim.timeout(self.l1.hit_ns)
            return
        if self.l2.lookup(block):
            self._set_state(STATE_ACTIVE)
            yield self.sim.timeout(self.l2.hit_ns)
            self.l1.insert(block)
            return
        # L2 miss: the PE stalls while the MCU administrates the fetch.
        self._set_state(STATE_IDLE)
        start = self.sim.now
        yield from self.mcu.fetch(block * self.block_bytes,
                                  self.block_bytes)
        elapsed = self.sim.now - start
        self.stats.stall_ns += elapsed
        self.stats.l2_miss_ns += elapsed
        tracer = self.sim.tracer
        if tracer.enabled:
            tracer.emit("mem_stall", self._track, start, self.sim.now,
                        address=op.address)
        self.l2.insert(block)
        self.l1.insert(block)
        self._set_state(STATE_ACTIVE)

    def _store(self, op: StoreOp) -> typing.Generator:
        self.stats.stores += 1
        self.stats.instructions += 1
        block = self.l1.block_of(op.address)
        # Keep the block visible to later loads.
        self.l1.insert(block)
        self.l2.insert(block)
        payload = bytes([self.pe_id + 1]) * op.size
        start = self.sim.now
        self._outstanding_stores += 1
        if self._store_depth_series is not None:
            self._store_depth_series.record(
                self.sim.now, float(self._outstanding_stores))
        yield self._store_queue.put((op.address, payload))
        waited = self.sim.now - start
        if waited > 0:  # buffer was full: a real write-pressure stall
            self.stats.stall_ns += waited
            self.stats.store_stall_ns += waited
            self._set_state(STATE_IDLE)
        self._set_state(STATE_ACTIVE)

    # ------------------------------------------------------------------
    # Store buffer
    # ------------------------------------------------------------------
    def _store_drainer(self) -> typing.Generator:
        while True:
            address, payload = yield self._store_queue.get()
            yield from self.mcu.store(address, payload)
            self._outstanding_stores -= 1
            if self._store_depth_series is not None:
                self._store_depth_series.record(
                    self.sim.now, float(self._outstanding_stores))
            if self._outstanding_stores == 0 and (
                    self._drained_event is not None):
                self._drained_event.succeed()
                self._drained_event = None

    def _drain_stores(self) -> typing.Generator:
        if self._outstanding_stores == 0:
            return
        self._set_state(STATE_IDLE)
        start = self.sim.now
        self._drained_event = self.sim.event(f"pe{self.pe_id}.drained")
        yield self._drained_event
        self.stats.stall_ns += self.sim.now - start
        self.stats.store_stall_ns += self.sim.now - start
        tracer = self.sim.tracer
        if tracer.enabled:
            tracer.emit("store_drain", self._track, start, self.sim.now)

    # ------------------------------------------------------------------
    def _set_state(self, state: float) -> None:
        if state != self._state:
            self._state = state
            self.activity.record(self.sim.now, state)

    @property
    def mean_ipc(self) -> float:
        """Instructions per cycle over the PE's busy window."""
        if self.stats.busy_ns <= 0:
            return 0.0
        cycles = self.stats.busy_ns / self.units.cycle_ns
        return self.stats.instructions / cycles
