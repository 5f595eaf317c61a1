"""Per-component energy constants and the charging API.

Unit convention: simulated time is nanoseconds and 1 W = 1 nJ/ns, so
``energy_nj = power_w * time_ns`` with no conversion factor.  All
constants are rough but *relatively* calibrated — the paper's energy
claims (Figure 17: DRAM-less spends ~19-24% of what advanced
accelerated systems spend) are about which component dominates where,
not absolute joules.
"""

from __future__ import annotations

import dataclasses
import typing

from repro.sim import Breakdown


@dataclasses.dataclass(frozen=True)
class EnergyModel:
    """Energy coefficients for every modelled component."""

    # -- Host side -----------------------------------------------------
    host_cpu_active_w: float = 65.0       # host CPU package, busy
    host_dram_pj_per_byte: float = 20.0   # host DRAM copies
    pcie_pj_per_byte: float = 18.0        # PCIe transfer + SerDes
    pcie_request_nj: float = 500.0        # doorbell/completion per request

    # -- Accelerator ---------------------------------------------------
    pe_active_w: float = 1.0              # one PE crunching
    pe_idle_w: float = 0.30               # one PE stalled on memory
    pe_sleep_w: float = 0.02              # PSC-gated sleep state
    accel_dram_pj_per_byte: float = 15.0  # internal DRAM buffer traffic
    accel_dram_background_w: float = 0.8  # 1 GB DRAM refresh/background

    # -- PRAM subsystem ------------------------------------------------
    pram_read_pj_per_byte: float = 15.0
    pram_set_pj_per_byte: float = 450.0   # SET pass (long crystallize)
    pram_reset_pj_per_byte: float = 250.0  # RESET pass (short melt)
    pram_idle_w: float = 0.05             # no refresh: near-zero standby
    fpga_controller_w: float = 1.5        # 28 nm FPGA logic, active

    # -- Flash / SSD ---------------------------------------------------
    flash_read_nj_per_page: float = 30_000.0    # ~30 uJ per 16 KB page
    flash_program_nj_per_page: float = 180_000.0
    flash_erase_nj_per_block: float = 1_500_000.0
    ssd_controller_w: float = 2.5         # SSD controller + firmware

    # -- NOR-interface PRAM ---------------------------------------------
    nor_read_pj_per_byte: float = 45.0
    nor_write_pj_per_byte: float = 900.0

    # -- Embedded firmware CPU ------------------------------------------
    firmware_cpu_w: float = 1.2           # 3-core 500 MHz ARM, busy


class EnergyAccount:
    """A per-run energy ledger.

    Categories follow Figure 17's decomposition: ``host``, ``pcie``,
    ``dram``, ``storage`` (flash/SSD), ``pram``, ``pe_compute``,
    ``pe_idle``, ``controller``.
    """

    def __init__(self, model: EnergyModel | None = None,
                 name: str = "energy") -> None:
        self.model = model or EnergyModel()
        self.breakdown = Breakdown(name)

    # ------------------------------------------------------------------
    # Charging API
    # ------------------------------------------------------------------
    def charge(self, category: str, nanojoules: float) -> None:
        """Charge raw energy into a category."""
        if nanojoules < 0:
            raise ValueError(f"negative energy: {nanojoules}")
        self.breakdown.add(category, nanojoules)

    def charge_power(self, category: str, watts: float,
                     duration_ns: float) -> None:
        """Charge power × time (1 W == 1 nJ/ns)."""
        if duration_ns < 0:
            raise ValueError(f"negative duration: {duration_ns}")
        self.charge(category, watts * duration_ns)

    def charge_bytes(self, category: str, pj_per_byte: float,
                     size: int) -> None:
        """Charge a per-byte movement cost (picojoules per byte)."""
        if size < 0:
            raise ValueError(f"negative size: {size}")
        self.charge(category, pj_per_byte * size / 1000.0)

    def charge_bytes_each(self, category: str, pj_per_byte: float,
                          sizes: typing.Iterable[int]) -> None:
        """One per-byte charge per entry of ``sizes``, in order.

        Each term is added to the category on its own, so the total is
        the float one :meth:`charge_bytes` call per size leaves (one
        product or one ``sum()`` would round differently).  A negative
        term raises before any is added; no sizes, no category.
        """
        terms = [pj_per_byte * size / 1000.0 for size in sizes]
        if terms and min(terms) < 0:
            raise ValueError(f"negative energy: {min(terms)}")
        self.breakdown.add_each(category, terms)

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    @property
    def total_nj(self) -> float:
        """Total energy charged so far."""
        return self.breakdown.total

    @property
    def total_mj(self) -> float:
        """Total in millijoules, the scale the paper plots."""
        return self.total_nj / 1e6

    def by_category(self) -> typing.Dict[str, float]:
        """Copy of per-category totals (nJ)."""
        return self.breakdown.as_dict()
