"""PCIe interconnect model.

Each device sits on its own slot (the paper's testbed attaches the
accelerator and the SSD through two different PCIe slots); a transfer
between two devices, or between a device and host DRAM, crosses one
link.  Gen3 x4-class effective bandwidth with a microsecond-scale
round-trip latency.
"""

from __future__ import annotations

import typing

from repro.energy import EnergyAccount
from repro.sim import Channel, Simulator
from repro.telemetry.metrics import current_metrics

#: Effective payload bandwidth, bytes/ns (Gen3 x4 after overhead).
PCIE_BANDWIDTH = 3.2

#: One-way transaction latency, ns.
PCIE_LATENCY_NS = 900.0


class PcieLink:
    """One PCIe slot's link, with byte/energy accounting."""

    def __init__(self, sim: Simulator,
                 bandwidth: float = PCIE_BANDWIDTH,
                 latency_ns: float = PCIE_LATENCY_NS,
                 energy: EnergyAccount | None = None,
                 name: str = "pcie") -> None:
        self.sim = sim
        self.name = name
        self.channel = Channel(sim, bandwidth, latency_ns, name=name)
        self.energy = energy
        self.transfers = 0
        metrics = current_metrics()
        if metrics.enabled:
            self._m_bytes = metrics.counter(
                f"{metrics.component_prefix(f'host.{name}')}.bytes")
        else:
            self._m_bytes = None

    def transfer(self, size: int,
                 request_id: int | None = None) -> typing.Generator:
        """Process body: move ``size`` bytes across the link.

        ``request_id`` tags the emitted span with the memory request the
        transfer serves, so latency attribution can charge PCIe time to
        that request.
        """
        start = self.sim.now
        yield from self.channel.transfer(size)
        self.transfers += 1
        tracer = self.sim.tracer
        if tracer.enabled:
            if request_id is not None:
                tracer.emit("transfer", self.name, start, self.sim.now,
                            bytes=size, req=request_id)
            else:
                tracer.emit("transfer", self.name, start, self.sim.now,
                            bytes=size)
        if self._m_bytes is not None:
            self._m_bytes.add(size)
        if self.energy is not None:
            self.energy.charge_bytes(
                "pcie", self.energy.model.pcie_pj_per_byte, size)
            self.energy.charge("pcie", self.energy.model.pcie_request_nj)

    @property
    def bytes_transferred(self) -> float:
        """Total payload bytes moved over this link."""
        return self.channel.bytes_transferred
