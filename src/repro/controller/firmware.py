"""The traditional-firmware baseline (Figure 7, "DRAM-less (firmware)").

Instead of hardware automation, a conventional SSD-style firmware
running on a 3-core 500 MHz embedded ARM CPU translates each memory
request (address lookup, scheduling, protocol management).  Firmware
execution time is comparable to — and for reads far exceeds — the PRAM
access itself, which is exactly the bottleneck Figure 7 quantifies.
"""

from __future__ import annotations

import typing

from repro.sim import Resource, Simulator

#: Embedded controller configuration (Section VI: "3-core 500 MHz ARM").
FIRMWARE_CORES = 3
FIRMWARE_CLOCK_GHZ = 0.5

#: Firmware instructions to admit one memory request: translation-layer
#: lookup, request scheduling, and LPDDR2-NVM transaction management.
#: 1500 instructions at 500 MHz = 3 us per request — the same order as
#: a PRAM program and ~30x a PRAM read, matching Figure 7's observation
#: that firmware execution, not the medium, bottlenecks data-intensive
#: workloads.
FIRMWARE_INSTRUCTIONS_PER_REQUEST = 1_500


class FirmwareModel:
    """Serializing firmware front-end placed before a controller."""

    def __init__(self, sim: Simulator, cores: int = FIRMWARE_CORES,
                 clock_ghz: float = FIRMWARE_CLOCK_GHZ,
                 instructions_per_request: int =
                 FIRMWARE_INSTRUCTIONS_PER_REQUEST) -> None:
        if cores < 1:
            raise ValueError(f"need at least one core, got {cores}")
        if clock_ghz <= 0:
            raise ValueError(f"clock must be positive, got {clock_ghz}")
        self.sim = sim
        self.cores = Resource(sim, capacity=cores, name="firmware.cores")
        self.request_cost_ns = instructions_per_request / clock_ghz
        self.requests_processed = 0

    def admit(self) -> typing.Generator:
        """Process body: one request's firmware pass.

        Grabs a firmware core, spends the execution time, releases.
        Requests queue when all cores are busy — the serialization the
        paper blames for DRAM-less (firmware)'s 25% deficit.
        """
        grant = self.cores.request()
        yield grant
        try:
            yield self.sim.timeout(self.request_cost_ns)
            self.requests_processed += 1
        finally:
            self.cores.release(grant)
