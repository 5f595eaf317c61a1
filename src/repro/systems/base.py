"""Shared machinery for system configurations.

Every system run builds a fresh :class:`~repro.sim.Simulator`, wires
components, preloads the workload's input into the persistent storage
(the paper's common-practice setup step), then drives four phases:

1. **prepare** — host-side data staging (only the heterogeneous
   systems pay this; integrated/PRAM systems hold data already);
2. **offload** — kernel image over PCIe to the accelerator;
3. **execute** — the accelerator runs the per-agent traces;
4. **writeback** — buffered outputs drain to persistent media.

The resulting :class:`ExecutionResult` carries everything the figures
need: wall time, a Figure 16-style time decomposition, a Figure
17-style energy account, bandwidth, and the IPC/power series.
"""

from __future__ import annotations

import abc
import dataclasses
import typing

from repro.accel import Accelerator, AcceleratorConfig, AcceleratorStats
from repro.accel.mcu import MemoryBackend
from repro.energy import EnergyAccount, EnergyModel
from repro.faults.plan import FaultConfig
from repro.host import PcieLink
from repro.sim import Breakdown, Simulator, TimeSeries
from repro.workloads.trace import TraceBundle

#: Period of :func:`input_pattern`: byte ``i`` of the pattern depends
#: only on ``(address + i) % 251``.
_PATTERN_PERIOD = 251
#: The pattern byte for every residue ``(address + i) % 251``.
_PATTERN_CYCLE = bytes((j * 31 + 7) % _PATTERN_PERIOD + 1
                       for j in range(_PATTERN_PERIOD))


def input_pattern(address: int, size: int) -> bytes:
    """Reproducible non-zero input bytes for a region.

    Byte ``i`` is ``((address + i) * 31 + 7) % 251 + 1``.  The pattern
    repeats every 251 bytes, so one rotated period is tiled over the
    region instead of evaluating the expression per byte.
    """
    shift = address % _PATTERN_PERIOD
    period = _PATTERN_CYCLE[shift:] + _PATTERN_CYCLE[:shift]
    return (period * (size // _PATTERN_PERIOD + 1))[:size]


@dataclasses.dataclass(frozen=True)
class SystemConfig:
    """Run-wide knobs shared by all systems."""

    accelerator: AcceleratorConfig = AcceleratorConfig()
    #: Fraction of the workload footprint the accelerator-side DRAM of
    #: heterogeneous systems can hold.  The paper's inflated workloads
    #: still fit the 1 GB device DRAM, so the default is 1.0 — the
    #: heterogeneous penalty is per-kernel-round staging, not
    #: thrashing.  Lower it to study capacity pressure.
    dram_fraction: float = 1.0
    energy_model: EnergyModel = EnergyModel()
    #: Optional fault-injection plan (repro.faults); only the PRAM
    #: systems honour it — DRAM/SSD media are modelled fault-free.
    faults: FaultConfig | None = None

    def __post_init__(self) -> None:
        if not 0.0 < self.dram_fraction <= 1.0:
            raise ValueError(
                f"dram_fraction must be in (0, 1], got {self.dram_fraction}"
            )


@dataclasses.dataclass
class ExecutionResult:
    """Everything one (system, workload) run produced."""

    system: str
    workload: str
    total_ns: float
    phase_ns: typing.Dict[str, float]
    time_breakdown: Breakdown
    energy: EnergyAccount
    bytes_processed: int
    accel_stats: AcceleratorStats
    aggregate_ipc: TimeSeries
    core_power: TimeSeries
    extras: typing.Dict[str, float] = dataclasses.field(default_factory=dict)

    @property
    def bandwidth_mb_s(self) -> float:
        """Data-processing throughput in MB/s (Figure 15's metric)."""
        if self.total_ns <= 0:
            return 0.0
        return self.bytes_processed / self.total_ns * 1e3

    @property
    def energy_mj(self) -> float:
        """Total energy in millijoules (Figure 17's metric)."""
        return self.energy.total_mj

    def normalized_to(self, baseline: "ExecutionResult") -> float:
        """Throughput relative to a baseline run (Figure 15's y-axis)."""
        if baseline.bandwidth_mb_s <= 0:
            raise ValueError("baseline has zero bandwidth")
        return self.bandwidth_mb_s / baseline.bandwidth_mb_s


class AcceleratedSystem(abc.ABC):
    """One row of Table I, runnable against any workload bundle."""

    #: Canonical display name (Table I column header).
    name: str = "abstract"
    #: Table I "Internal DRAM" row: charged as background power.
    has_internal_dram: bool = True
    #: Table I "Heterogeneous" row: storage is outside the accelerator.
    heterogeneous: bool = False
    #: Conventional kernel scheduling: the host coordinates every
    #: kernel round (offload + data movement per execution).  DRAM-less
    #: overrides this — its server PE schedules rounds internally
    #: (Section IV), so only the first round pays the offload.
    host_coordinated: bool = True

    def __init__(self, config: SystemConfig = SystemConfig()) -> None:
        self.config = config

    # ------------------------------------------------------------------
    # Subclass hooks
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def _build(self, sim: Simulator, energy: EnergyAccount,
               bundle: TraceBundle) -> MemoryBackend:
        """Construct this system's data path and return the backend."""

    def _prepare(self, sim: Simulator, backend: MemoryBackend,
                 bundle: TraceBundle) -> typing.Generator:
        """Host-side data staging; default: data is already in place."""
        return
        yield  # pragma: no cover

    def _writeback(self, sim: Simulator, backend: MemoryBackend,
                   bundle: TraceBundle) -> typing.Generator:
        """Drain outputs to persistent media; default: backend flush."""
        yield from backend.flush()

    def _final_persist(self, sim: Simulator, backend: MemoryBackend,
                       bundle: TraceBundle) -> typing.Generator:
        """Make the final outputs durable (end of the whole run).

        DRAM-less outputs are persistent the moment they program; the
        heterogeneous systems override this to flush the SSD's volatile
        cache to its medium so every system ends in an equivalent
        durability state.
        """
        return
        yield  # pragma: no cover

    def _finalize_energy(self, energy: EnergyAccount,
                         total_ns: float) -> None:
        """Charge run-length-proportional background energy."""
        model = energy.model
        if self.has_internal_dram:
            energy.charge_power("dram", model.accel_dram_background_w,
                                total_ns)

    # ------------------------------------------------------------------
    # The run loop
    # ------------------------------------------------------------------
    def run(self, bundle: TraceBundle) -> ExecutionResult:
        """Execute ``bundle`` on this system; returns the full result."""
        sim = Simulator()
        energy = EnergyAccount(self.config.energy_model,
                               name=f"{self.name}.energy")
        backend = self._build(sim, energy, bundle)
        self._preload_inputs(backend, bundle)
        accel = Accelerator(sim, backend, self.config.accelerator)
        offload_link = PcieLink(sim, energy=energy, name="pcie.offload")
        phase_ns: typing.Dict[str, float] = {}
        outcome: typing.Dict[str, typing.Any] = {}

        def add_phase(phase: str, amount: float) -> None:
            phase_ns[phase] = phase_ns.get(phase, 0.0) + amount

        def driver() -> typing.Generator:
            execute_start: float | None = None
            for round_index, traces in enumerate(bundle.rounds):
                coordinated = self.host_coordinated or round_index == 0

                if coordinated:
                    mark = sim.now
                    yield from self._prepare(sim, backend, bundle)
                    add_phase("prepare", sim.now - mark)

                    # Kernel offload over PCIe (Figure 9b step 2); the
                    # server-side image load is inside accel.execute.
                    mark = sim.now
                    yield from offload_link.transfer(
                        self.config.accelerator.image_bytes)
                    add_phase("offload", sim.now - mark)

                mark = sim.now
                if execute_start is None:
                    execute_start = mark
                yield from accel.execute(
                    traces,
                    kernel_name=bundle.spec.name,
                    output_regions=[bundle.output_region],
                    flush_backend=False,
                    collect=False)
                add_phase("execute", sim.now - mark)

                if coordinated:
                    mark = sim.now
                    yield from self._writeback(sim, backend, bundle)
                    add_phase("writeback", sim.now - mark)
            # DRAM-less style runs: one final writeback (a no-op for
            # persistent media) after the internally-scheduled rounds.
            if not self.host_coordinated:
                mark = sim.now
                yield from self._writeback(sim, backend, bundle)
                add_phase("writeback", sim.now - mark)
            mark = sim.now
            yield from self._final_persist(sim, backend, bundle)
            add_phase("writeback", sim.now - mark)
            outcome["stats"] = accel.collect_stats(
                execute_start if execute_start is not None else sim.now)
            outcome["end_ns"] = sim.now

        process = sim.process(driver())
        # run() drains stragglers (e.g. background pre-resets that no
        # longer matter); the run's wall clock is the driver's end.
        # Spans recorded during the run group under one scope per
        # (system, workload), i.e. one Perfetto process each.
        with sim.tracer.scope(f"{self.name}:{bundle.spec.name}"):
            sim.run()
        if not process.ok:
            raise typing.cast(BaseException, process.value)

        total_ns = typing.cast(float, outcome["end_ns"])
        stats = outcome["stats"]
        self._charge_pe_energy(energy, stats)
        self._finalize_energy(energy, total_ns)
        return ExecutionResult(
            system=self.name,
            workload=bundle.spec.name,
            total_ns=total_ns,
            phase_ns=dict(phase_ns),
            time_breakdown=self._decompose_time(phase_ns, stats),
            energy=energy,
            bytes_processed=bundle.total_bytes,
            accel_stats=stats,
            aggregate_ipc=stats.aggregate_ipc,
            core_power=accel.power_series(self.config.energy_model),
        )

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _preload_inputs(self, backend: MemoryBackend,
                        bundle: TraceBundle) -> None:
        address, size = bundle.input_region
        chunk = 64 * 1024
        cursor = 0
        while cursor < size:
            span = min(chunk, size - cursor)
            backend.preload(address + cursor,
                            input_pattern(address + cursor, span))
            cursor += span

    def _charge_pe_energy(self, energy: EnergyAccount,
                          stats: AcceleratorStats) -> None:
        from repro.accel.pe import STATE_ACTIVE, STATE_IDLE, STATE_SLEEP

        model = energy.model
        for residency in stats.pe_residency:
            energy.charge_power("pe_compute", model.pe_active_w,
                                residency.get(STATE_ACTIVE, 0.0))
            energy.charge_power("pe_idle", model.pe_idle_w,
                                residency.get(STATE_IDLE, 0.0))
            energy.charge_power("pe_idle", model.pe_sleep_w,
                                residency.get(STATE_SLEEP, 0.0))

    def _decompose_time(self, phase_ns: typing.Dict[str, float],
                        stats: AcceleratorStats) -> Breakdown:
        """Figure 16-style decomposition of the wall clock.

        The execute phase splits into computation and stalls using the
        agents' aggregate compute/stall shares.
        """
        breakdown = Breakdown("time")
        breakdown.add("data_preparation", phase_ns.get("prepare", 0.0))
        breakdown.add("kernel_offload", phase_ns.get("offload", 0.0))
        execute = phase_ns.get("execute", 0.0)
        busy = stats.compute_ns + stats.stall_ns
        if busy > 0:
            compute_share = stats.compute_ns / busy
            memory_share = ((stats.stall_ns - stats.store_stall_ns)
                            / busy)
            store_share = stats.store_stall_ns / busy
        else:  # pragma: no cover - empty traces
            compute_share = memory_share = store_share = 0.0
        breakdown.add("computation", execute * compute_share)
        breakdown.add("memory_stall", execute * memory_share)
        breakdown.add("store_stall", execute * store_share)
        breakdown.add("output_writeback", phase_ns.get("writeback", 0.0))
        return breakdown
