"""PRAM-based accelerators: NOR-intf, PAGE-buffer, and DRAM-less.

These three (plus DRAM-less (firmware)) integrate PRAM into the
coprocessor with different interfaces:

* **NOR-intf** — 9x nm parallel PRAM over a serial NOR interface:
  byte-addressable, no DRAM, but word-serialized and slow;
* **PAGE-buffer** — the same 3x nm samples as DRAM-less, but accessed
  at page granularity through an internal DRAM buffer;
* **DRAM-less** — the paper's system: the hardware-automated PRAM
  subsystem with multi-resource aware interleaving and selective
  erasing;
* **DRAM-less (firmware)** — identical hardware, but every request is
  admitted by traditional SSD firmware on a 3-core 500 MHz CPU.
"""

from __future__ import annotations

from repro.controller import PramSubsystem, SchedulerPolicy
from repro.controller.firmware import FirmwareModel
from repro.energy import EnergyAccount
from repro.pram import PramGeometry, PramTimingParams
from repro.sim import Simulator
from repro.systems.backends import NorBackend, PageBufferBackend, PramBackend
from repro.systems.base import AcceleratedSystem, SystemConfig
from repro.workloads.trace import TraceBundle


class NorSystem(AcceleratedSystem):
    """Byte-addressable legacy PRAM, no DRAM buffer (NOR-intf)."""

    name = "NOR-intf"
    heterogeneous = False
    has_internal_dram = False

    def _build(self, sim: Simulator, energy: EnergyAccount,
               bundle: TraceBundle) -> NorBackend:
        return NorBackend(sim, energy)


class PageBufferSystem(AcceleratedSystem):
    """3x nm PRAM behind a page interface + DRAM buffer (PAGE-buffer)."""

    name = "PAGE-buffer"
    heterogeneous = False
    has_internal_dram = True

    def _build(self, sim: Simulator, energy: EnergyAccount,
               bundle: TraceBundle) -> PageBufferBackend:
        return PageBufferBackend(sim, energy)

    def _writeback(self, sim: Simulator, backend: PageBufferBackend,
                   bundle: TraceBundle):
        """Per-round flush + buffer teardown (conventional scheduling)."""
        yield from backend.flush()
        backend.invalidate_buffer()


class DramlessSystem(AcceleratedSystem):
    """The paper's system: hardware-automated PRAM subsystem."""

    heterogeneous = False
    has_internal_dram = False
    # The server PE schedules kernel rounds internally (Section IV):
    # only the first round pays host offload, and there is no per-round
    # data staging or writeback.
    host_coordinated = False

    def __init__(self, config: SystemConfig = SystemConfig(),
                 policy: SchedulerPolicy = SchedulerPolicy.FINAL,
                 firmware: bool = False,
                 firmware_cores: int = 3,
                 firmware_instructions: int | None = None,
                 geometry: PramGeometry = PramGeometry(),
                 params: PramTimingParams = PramTimingParams()) -> None:
        super().__init__(config)
        self.policy = policy
        self.firmware = firmware
        self.firmware_cores = firmware_cores
        self.firmware_instructions = firmware_instructions
        self.geometry = geometry
        self.params = params
        self.name = "DRAM-less (firmware)" if firmware else "DRAM-less"
        self._firmware_model: FirmwareModel | None = None

    def _build(self, sim: Simulator, energy: EnergyAccount,
               bundle: TraceBundle) -> PramBackend:
        if self.firmware:
            kwargs = {"cores": self.firmware_cores}
            if self.firmware_instructions is not None:
                kwargs["instructions_per_request"] = (
                    self.firmware_instructions)
            self._firmware_model = FirmwareModel(sim, **kwargs)
        else:
            self._firmware_model = None
        subsystem = PramSubsystem(
            sim, geometry=self.geometry, params=self.params,
            policy=self.policy, firmware=self._firmware_model,
            faults=self.config.faults)
        return PramBackend(sim, energy, subsystem)

    def _finalize_energy(self, energy: EnergyAccount,
                         total_ns: float) -> None:
        super()._finalize_energy(energy, total_ns)
        model = energy.model
        energy.charge_power("pram", model.pram_idle_w, total_ns)
        # The 28 nm FPGA controller is powered for the whole run.
        energy.charge_power("controller", model.fpga_controller_w,
                            total_ns)
        if self._firmware_model is not None:
            busy = (self._firmware_model.requests_processed
                    * self._firmware_model.request_cost_ns)
            energy.charge_power("controller", model.firmware_cpu_w, busy)
