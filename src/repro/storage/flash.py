"""NAND flash dies (Table I latencies).

Flash is page-granular: reads and programs move whole 16 KB pages
("flash's page-level bandwidth (i.e., 16KB parallel I/O)"), and erases
clear multi-page blocks.  Pages cannot be overwritten in place — the
FTL in :mod:`~repro.storage.ssd` remaps instead.
"""

from __future__ import annotations

import enum
import typing

from repro.sim import Resource, Simulator

#: Page and block geometry common to the modelled dies.
PAGE_BYTES = 16 * 1024
PAGES_PER_BLOCK = 256


class FlashCellType(enum.Enum):
    """Cell grades with Table I latencies (microseconds)."""

    SLC = ("slc", 25.0, 300.0, 2_000.0)
    MLC = ("mlc", 50.0, 800.0, 3_500.0)
    TLC = ("tlc", 80.0, 1_250.0, 2_274.0)

    def __init__(self, label: str, read_us: float, program_us: float,
                 erase_us: float) -> None:
        self.label = label
        self.read_ns = read_us * 1_000.0
        self.program_ns = program_us * 1_000.0
        self.erase_ns = erase_us * 1_000.0


class NandFlash:
    """A bank of flash dies with plane-level parallelism.

    ``parallelism`` models the number of independent die/plane units;
    concurrent page operations beyond that queue.
    """

    def __init__(self, sim: Simulator, cell_type: FlashCellType,
                 parallelism: int = 8, name: str = "flash") -> None:
        if parallelism < 1:
            raise ValueError(f"parallelism must be >= 1, got {parallelism}")
        self.sim = sim
        self.cell_type = cell_type
        self.name = name
        self.planes = Resource(sim, capacity=parallelism,
                               name=f"{name}.planes")
        self._pages: typing.Dict[int, bytes] = {}
        self.pages_read = 0
        self.pages_programmed = 0
        self.blocks_erased = 0

    # ------------------------------------------------------------------
    # Timed operations (process bodies)
    # ------------------------------------------------------------------
    # Each plane hold stays a process of its own: a plain `yield from`
    # moved fig15's jaco1D on Integrated-SLC at seed 2 (DESIGN §6.1).
    def read_page(self, page: int) -> typing.Generator:
        """Read one page; returns its bytes (zeros if never written)."""
        self._check_page(page)
        yield self.sim.process(  # noqa: SIM008 - order-bearing
            self.planes.use(self.cell_type.read_ns))
        self.pages_read += 1
        return self._pages.get(page, bytes(PAGE_BYTES))

    def program_page(self, page: int, data: bytes) -> typing.Generator:
        """Program one full page (no partial programs on NAND)."""
        self._check_page(page)
        if len(data) != PAGE_BYTES:
            raise ValueError(
                f"flash programs whole {PAGE_BYTES}-byte pages, "
                f"got {len(data)} bytes"
            )
        if page in self._pages:
            raise ValueError(
                f"page {page} already programmed; erase its block first"
            )
        yield self.sim.process(  # noqa: SIM008 - order-bearing
            self.planes.use(self.cell_type.program_ns))
        self._pages[page] = bytes(data)
        self.pages_programmed += 1

    def erase_block(self, block: int) -> typing.Generator:
        """Erase one block (all its pages return to unprogrammed)."""
        if block < 0:
            raise ValueError(f"negative block: {block}")
        yield self.sim.process(  # noqa: SIM008 - order-bearing
            self.planes.use(self.cell_type.erase_ns))
        first = block * PAGES_PER_BLOCK
        for page in range(first, first + PAGES_PER_BLOCK):
            self._pages.pop(page, None)
        self.blocks_erased += 1

    # ------------------------------------------------------------------
    # Functional access
    # ------------------------------------------------------------------
    def peek(self, page: int) -> bytes:
        """Zero-time page read (verification)."""
        self._check_page(page)
        return self._pages.get(page, bytes(PAGE_BYTES))

    def poke(self, page: int, data: bytes) -> None:
        """Zero-time page preload (experiment setup)."""
        self._check_page(page)
        if len(data) != PAGE_BYTES:
            raise ValueError("poke must cover the whole page")
        self._pages[page] = bytes(data)

    def is_programmed(self, page: int) -> bool:
        """Whether the page currently holds data."""
        return page in self._pages

    @staticmethod
    def _check_page(page: int) -> None:
        if page < 0:
            raise ValueError(f"negative page: {page}")
