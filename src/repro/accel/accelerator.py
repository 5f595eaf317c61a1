"""The full accelerator assembly (Figure 6a).

``Accelerator`` wires eight PEs (one server + seven agents), the PSC,
the MCU, and whatever memory backend the system configuration
installs, and exposes one entry point — :meth:`Accelerator.execute` —
that runs a packed kernel image across the agents and returns the
statistics every figure consumes (time, aggregate IPC series, per-PE
residency for energy).
"""

from __future__ import annotations

import dataclasses
import itertools
import operator
import typing

from repro.accel.kernel import KernelSegment, pack_data
from repro.accel.mcu import MemoryBackend, MemoryControllerUnit
from repro.accel.pe import (
    STATE_ACTIVE,
    STATE_IDLE,
    STATE_SLEEP,
    ProcessingElement,
)
from repro.accel.psc import PowerSleepController
from repro.accel.server import ServerPe
from repro.energy import EnergyModel
from repro.sim import Simulator, TimeSeries


@dataclasses.dataclass(frozen=True)
class AcceleratorConfig:
    """Platform shape (Section VI: eight 1 GHz embedded processors)."""

    pe_count: int = 8
    clock_ghz: float = 1.0
    l1_bytes: int = 64 * 1024
    l2_bytes: int = 512 * 1024
    block_bytes: int = 512
    store_buffer_depth: int = 4
    #: Where kernel images land in memory — the "designated image
    #: space" of Figure 9b, clear of any workload data region.
    image_base: int = 128 * 1024 * 1024
    image_bytes: int = 4096

    def __post_init__(self) -> None:
        if self.pe_count < 2:
            raise ValueError("need at least a server and one agent")
        if self.clock_ghz <= 0:
            raise ValueError("clock must be positive")


@dataclasses.dataclass
class AcceleratorStats:
    """What one kernel execution produced."""

    elapsed_ns: float
    instructions: int
    aggregate_ipc: TimeSeries
    compute_ns: float
    stall_ns: float
    store_stall_ns: float
    l2_misses: int
    #: Per-PE map of state code (STATE_SLEEP/IDLE/ACTIVE) -> ns spent.
    pe_residency: typing.List[typing.Dict[float, float]]

    @property
    def mean_aggregate_ipc(self) -> float:
        """Time-weighted mean of the summed agent IPC."""
        if self.elapsed_ns <= 0:
            return 0.0
        return self.aggregate_ipc.time_weighted_mean(0.0, self.elapsed_ns)


class Accelerator:
    """Eight-PE accelerator with a pluggable memory backend."""

    def __init__(self, sim: Simulator, backend: MemoryBackend,
                 config: AcceleratorConfig = AcceleratorConfig()) -> None:
        self.sim = sim
        self.config = config
        self.backend = backend
        self.mcu = MemoryControllerUnit(sim, backend)
        self.psc = PowerSleepController(sim, config.pe_count)
        self.pes = [
            ProcessingElement(
                sim, pe_id, self.mcu, clock_ghz=config.clock_ghz,
                l1_bytes=config.l1_bytes, l2_bytes=config.l2_bytes,
                block_bytes=config.block_bytes,
                store_buffer_depth=config.store_buffer_depth)
            for pe_id in range(config.pe_count)
        ]
        # PE 0 is the server; the rest are agents (Section III-B).
        self.agents = self.pes[1:]
        self.server = ServerPe(sim, self.mcu, self.psc, self.agents)

    @property
    def agent_count(self) -> int:
        """Number of data-processing PEs."""
        return len(self.agents)

    # ------------------------------------------------------------------
    # Execution entry point
    # ------------------------------------------------------------------
    def execute(self, traces: typing.Sequence[typing.Sequence],
                kernel_name: str = "kernel",
                output_regions: typing.Sequence[
                    typing.Tuple[int, int]] = (),
                flush_backend: bool = True,
                collect: bool = True) -> typing.Generator:
        """Process body: run per-agent traces; returns AcceleratorStats.

        Builds a minimal one-segment kernel image for the run (the
        payload size models the code footprint), loads it through the
        server, and launches every trace.  Pass ``flush_backend=False``
        when the system model wants to time the writeback phase
        separately, and ``collect=False`` when running one round of a
        multi-round workload (use :meth:`collect_stats` over the whole
        window afterwards).
        """
        start = self.sim.now
        image_bytes = pack_data([
            KernelSegment(kernel_name, load_address=self.config.image_base,
                          entry_offset=0,
                          payload=bytes(self.config.image_bytes)),
        ])
        image = yield from self.server.load_image(
            image_bytes, output_regions=output_regions)
        yield from self.server.run_all(image, kernel_name, traces)
        if flush_backend:
            yield from self.backend.flush()
        if not collect:
            return None
        return self._collect(start)

    def collect_stats(self, start: float) -> "AcceleratorStats":
        """Statistics over [start, now] — for multi-round runs."""
        return self._collect(start)

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------
    def _collect(self, start: float) -> AcceleratorStats:
        elapsed = self.sim.now - start
        instructions = sum(pe.stats.instructions for pe in self.agents)
        aggregate = _sum_series([pe.ipc_series for pe in self.agents],
                                name="aggregate_ipc")
        residency = [
            {STATE_SLEEP: 0.0, STATE_IDLE: 0.0, STATE_ACTIVE: 0.0,
             **pe.activity.residency(start, self.sim.now)}
            for pe in self.pes
        ]
        return AcceleratorStats(
            elapsed_ns=elapsed,
            instructions=instructions,
            aggregate_ipc=aggregate,
            compute_ns=sum(pe.stats.compute_ns for pe in self.agents),
            stall_ns=sum(pe.stats.stall_ns for pe in self.agents),
            store_stall_ns=sum(pe.stats.store_stall_ns
                               for pe in self.agents),
            l2_misses=sum(pe.l2.misses for pe in self.agents),
            pe_residency=residency,
        )

    def power_series(self, model: EnergyModel) -> TimeSeries:
        """Instantaneous core power over the whole run (Figures 20a/21a).

        Sums every PE's state series mapped through the per-state power
        levels.
        """
        mapped = []
        for pe in self.pes:
            watts = TimeSeries(f"pe{pe.pe_id}.watts")
            for time, state in zip(pe.activity.times, pe.activity.values):
                watts.record(time, _state_power(state, model))
            mapped.append(watts)
        return _sum_series(mapped, name="core_power_w")


def _state_power(state: float, model: EnergyModel) -> float:
    if state == STATE_ACTIVE:
        return model.pe_active_w
    if state == STATE_IDLE:
        return model.pe_idle_w
    return model.pe_sleep_w


def _sum_series(series: typing.Sequence[TimeSeries],
                name: str) -> TimeSeries:
    """Pointwise sum of step functions.

    One sweep over every change point in time order keeps each series'
    current level (its last sample at or before the time, 0.0 before
    its first).  At each distinct time the levels are summed in series
    order, so the floats add exactly as per-time lookups would.
    """
    at_time = operator.itemgetter(0)
    changes = [(time, index, value)
               for index, steps in enumerate(series)
               for time, value in zip(steps.times, steps.values)]
    # Stable on time alone: a series' samples at one time stay in
    # record order, so its last one is the level that holds.
    changes.sort(key=at_time)
    levels = [0.0] * len(series)
    total = TimeSeries(name)
    for time, group in itertools.groupby(changes, key=at_time):
        for _, index, value in group:
            levels[index] = value
        total.record(time, sum(levels))
    return total
