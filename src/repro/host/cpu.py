"""Host CPU cost model: syscalls, context switches, memory copies."""

from __future__ import annotations

import dataclasses
import typing

from repro.energy import EnergyAccount
from repro.sim import Resource, Simulator


@dataclasses.dataclass(frozen=True)
class HostCpuCosts:
    """Fixed host-side overheads, nanoseconds.

    The figures are conventional Linux-on-x86 magnitudes; what matters
    for the reproduction is that a storage round trip costs tens of
    microseconds of CPU time while the device itself needs far less.
    """

    syscall_ns: float = 1_500.0           # user->kernel->user, no work
    context_switch_ns: float = 4_000.0    # blocking I/O reschedule
    interrupt_ns: float = 2_000.0         # device completion IRQ + wakeup
    copy_bandwidth: float = 10.0          # memcpy bytes/ns (~10 GB/s)
    deserialize_per_byte_ns: float = 0.15  # file-to-object conversion


class HostCpu:
    """A host CPU executing storage-stack work on behalf of the accelerator.

    One core serves the I/O path (the paper's workloads drive a single
    submission thread); time spent here is charged as ``host`` energy
    at package power.
    """

    def __init__(self, sim: Simulator,
                 costs: HostCpuCosts = HostCpuCosts(),
                 energy: EnergyAccount | None = None) -> None:
        self.sim = sim
        self.costs = costs
        self.energy = energy
        self.core = Resource(sim, capacity=1, name="host.core")
        self.busy_ns = 0.0
        self.syscalls = 0
        self.context_switches = 0
        self.copies = 0
        self.bytes_copied = 0

    # ------------------------------------------------------------------
    # Timed work items (process bodies)
    # ------------------------------------------------------------------
    def run(self, duration: float) -> typing.Generator:
        """Occupy the core for ``duration`` ns and charge energy."""
        if duration < 0:
            raise ValueError(f"negative duration: {duration}")
        # The core hold stays a process of its own: a plain `yield
        # from` moved durbin on Hetero at seed 1 (DESIGN §6.1).
        yield self.sim.process(  # noqa: SIM008 - order-bearing
            self.core.use(duration))
        self.busy_ns += duration
        if self.energy is not None:
            self.energy.charge_power(
                "host", self.energy.model.host_cpu_active_w, duration)

    def syscall(self) -> typing.Generator:
        """One system-call entry/exit."""
        self.syscalls += 1
        yield from self.run(self.costs.syscall_ns)

    def context_switch(self) -> typing.Generator:
        """One blocking-I/O reschedule."""
        self.context_switches += 1
        yield from self.run(self.costs.context_switch_ns)

    def handle_interrupt(self) -> typing.Generator:
        """Completion interrupt servicing."""
        yield from self.run(self.costs.interrupt_ns)

    def copy(self, size: int) -> typing.Generator:
        """One host-DRAM-to-host-DRAM copy of ``size`` bytes."""
        if size < 0:
            raise ValueError(f"negative copy size: {size}")
        self.copies += 1
        self.bytes_copied += size
        yield from self.run(size / self.costs.copy_bandwidth)
        if self.energy is not None:
            self.energy.charge_bytes(
                "host_dram", self.energy.model.host_dram_pj_per_byte, size)

    def deserialize(self, size: int) -> typing.Generator:
        """File-representation to object-representation conversion.

        The Morpheus-style overhead: turning low-level file bytes into
        the in-memory objects the accelerator consumes.
        """
        if size < 0:
            raise ValueError(f"negative size: {size}")
        yield from self.run(size * self.costs.deserialize_per_byte_ns)
