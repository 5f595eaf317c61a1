"""Build any evaluated system by its Table I name."""

from __future__ import annotations

import typing

from repro.storage import FlashCellType
from repro.systems.base import AcceleratedSystem, SystemConfig
from repro.systems.hetero import HeteroSystem, IdealHeteroSystem, IdealSystem
from repro.systems.integrated import IntegratedSystem
from repro.systems.pram_accel import (
    DramlessSystem,
    NorSystem,
    PageBufferSystem,
)

#: The ten systems of Figures 15-17, in the paper's plotting order,
#: plus the Ideal reference and the firmware ablation.
SYSTEM_NAMES: typing.Tuple[str, ...] = (
    "Hetero",
    "Heterodirect",
    "Hetero-PRAM",
    "Heterodirect-PRAM",
    "NOR-intf",
    "Integrated-SLC",
    "Integrated-MLC",
    "Integrated-TLC",
    "PAGE-buffer",
    "DRAM-less (firmware)",
    "DRAM-less",
)

_BUILDERS: typing.Dict[str, typing.Callable[
    [SystemConfig], AcceleratedSystem]] = {
    "Ideal": lambda cfg: IdealSystem(cfg),
    "Ideal-resident": lambda cfg: IdealHeteroSystem(cfg),
    "Hetero": lambda cfg: HeteroSystem(cfg),
    "Heterodirect": lambda cfg: HeteroSystem(cfg, p2p=True),
    "Hetero-PRAM": lambda cfg: HeteroSystem(cfg, pram_ssd=True),
    "Heterodirect-PRAM": lambda cfg: HeteroSystem(cfg, pram_ssd=True,
                                                  p2p=True),
    "NOR-intf": lambda cfg: NorSystem(cfg),
    "Integrated-SLC": lambda cfg: IntegratedSystem(
        cfg, cell_type=FlashCellType.SLC),
    "Integrated-MLC": lambda cfg: IntegratedSystem(
        cfg, cell_type=FlashCellType.MLC),
    "Integrated-TLC": lambda cfg: IntegratedSystem(
        cfg, cell_type=FlashCellType.TLC),
    "PAGE-buffer": lambda cfg: PageBufferSystem(cfg),
    "DRAM-less": lambda cfg: DramlessSystem(cfg),
    "DRAM-less (firmware)": lambda cfg: DramlessSystem(cfg, firmware=True),
}


def build_system(name: str,
                 config: SystemConfig | None = None
                 ) -> AcceleratedSystem:
    """Instantiate a system by name ("Ideal" and Table I's ten + fw)."""
    try:
        builder = _BUILDERS[name]
    except KeyError:
        known = ", ".join(sorted(_BUILDERS))
        raise KeyError(f"unknown system {name!r}; known: {known}") from None
    return builder(config if config is not None else SystemConfig())
