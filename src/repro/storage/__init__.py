"""Storage substrates for the baseline systems (Table I).

* :mod:`~repro.storage.flash` — NAND flash dies in SLC/MLC/TLC grades;
* :mod:`~repro.storage.dram` — DRAM buffers (host, accelerator, SSD);
* :mod:`~repro.storage.ssd` — an emulated SSD: flash + FTL + 1 GB
  internal DRAM buffer, exposing a block interface;
* :mod:`~repro.storage.optane` — a PRAM-based SSD (Optane-like): PRAM
  medium behind the same block interface;
* :mod:`~repro.storage.nor_pram` — the 9x nm parallel PRAM with a NOR
  flash interface: byte-addressable but 16-bit serialized;
* :mod:`~repro.storage.pages` — the sparse 4 KiB page store that holds
  the contents of the PRAM SSD, the NOR-intf PRAM and the Ideal
  system's DRAM.
"""

from repro.storage.dram import DramBuffer
from repro.storage.flash import FlashCellType, NandFlash
from repro.storage.nor_pram import NorPram
from repro.storage.optane import PramSsd
from repro.storage.ssd import EmulatedSsd

__all__ = [
    "DramBuffer",
    "EmulatedSsd",
    "FlashCellType",
    "NandFlash",
    "NorPram",
    "PramSsd",
]
