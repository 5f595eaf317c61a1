"""Multi-partition PRAM device model (Section II of the paper).

This package is a functional + timing model of the 3x nm engineering
samples the paper wires to its FPGA:

* :mod:`~repro.pram.constants` — Table II timing parameters and the
  bank/partition/tile geometry of Section II-A;
* :mod:`~repro.pram.address` — flat-byte-address ⇄ (channel, module,
  partition, row, column) decomposition, including the upper/lower row
  split required by three-phase addressing and one channel's rows of a
  region;
* :mod:`~repro.pram.cell` — word-granularity SET/RESET state so the
  pristine-vs-programmed write-latency asymmetry (and therefore
  selective erasing) is observable;
* :mod:`~repro.pram.row_buffer` — the RAB/RDB multi-row-buffer file;
* :mod:`~repro.pram.overlay_window` — the overlay window every write
  goes through: the staged program's fields and the busy status;
* :mod:`~repro.pram.module` — a PRAM chip: the LPDDR2-NVM three-phase
  addressing state machine with per-partition busy tracking;
* :mod:`~repro.pram.timing` — pure latency computations for each phase.

The model stores real bytes: reads return what writes stored, so the
whole stack above it is testable end to end.
"""

from repro.pram.address import AddressMap, PramAddress
from repro.pram.cell import CellState, WordStateTracker
from repro.pram.constants import (
    PRAM_ERASE_LATENCY_NS,
    PRAM_READ_LATENCY_NS,
    PRAM_RESET_ONLY_LATENCY_NS,
    PRAM_WRITE_OVERWRITE_NS,
    PRAM_WRITE_PRISTINE_NS,
    PramGeometry,
    PramTimingParams,
)
from repro.pram.errors import (
    AddressError,
    BufferMissError,
    PartitionBusyError,
    PramError,
    ProtocolError,
)
from repro.pram.module import PramModule
from repro.pram.overlay_window import OverlayWindow
from repro.pram.row_buffer import RowBufferSet
from repro.pram.timing import TimingModel

__all__ = [
    "AddressError",
    "AddressMap",
    "BufferMissError",
    "CellState",
    "OverlayWindow",
    "PRAM_ERASE_LATENCY_NS",
    "PRAM_READ_LATENCY_NS",
    "PRAM_RESET_ONLY_LATENCY_NS",
    "PRAM_WRITE_OVERWRITE_NS",
    "PRAM_WRITE_PRISTINE_NS",
    "PartitionBusyError",
    "PramAddress",
    "PramError",
    "PramGeometry",
    "PramModule",
    "PramTimingParams",
    "ProtocolError",
    "RowBufferSet",
    "TimingModel",
    "WordStateTracker",
]
