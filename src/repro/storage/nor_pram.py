"""The 9x nm parallel PRAM with a serial NOR flash interface.

Used by the "NOR-intf" baseline: byte-addressable like the 3x nm part,
but every access is serialized through 16-bit low-level memory
operations over the legacy interface.  Section VI calibrates it
relative to DRAM-less's PRAM: "its legacy read and write are slower
than our new PRAM by 3x and 10x".
"""

from __future__ import annotations

import typing

from repro.energy import EnergyAccount
from repro.sim import Pool, Simulator
from repro.storage.pages import SparsePages

#: Access unit on the legacy interface: one 16-bit word.
WORD_BYTES = 2

#: Read of a 32-byte operand.  Calibrated against Section VI-A's
#: bandwidth claim: NOR read bandwidth is "2x worse than flash's
#: page-level bandwidth" (SLC: 16 KB / 25 us = 655 MB/s), so a 512 B
#: block read takes ~1.6 us = 16 x 100 ns.  At block level this is
#: also ~1.5x a DRAM-less block read, consistent with Figure 18's
#: DRAM-less-beats-NOR-by-42% IPC gap.
NOR_READ_32B_NS = 100.0

#: Write of a 32-byte operand.  Calibrated at the 512-byte block level:
#: a serialized block write takes 16 x 3.75 us = 60 us, ~3-6x the
#: 10-18 us a DRAM-less block program takes (Section VI-D: "legacy ...
#: write ... slower than our new PRAM by ... 10x" at operand level,
#: where the new PRAM's per-module 32 B program is effectively
#: 10-18 us / 16 thanks to bank striping).
NOR_WRITE_32B_NS = 3_750.0

_WORDS_PER_OPERAND = 32 // WORD_BYTES


class NorPram:
    """Byte-addressable PRAM behind a word-serialized NOR interface.

    The single interface port is the bottleneck: there is no internal
    parallelism to exploit, so all accesses queue.  Contents live in
    sparse 4 KiB pages (:class:`~repro.storage.pages.SparsePages`);
    unwritten bytes read as zero.
    """

    def __init__(self, sim: Simulator,
                 energy: EnergyAccount | None = None,
                 name: str = "nor-pram") -> None:
        self.sim = sim
        self.name = name
        self.port = Pool(sim, capacity=1, name=f"{name}.port")
        self.energy = energy
        self._contents = SparsePages()
        self.words_read = 0
        self.words_written = 0

    # ------------------------------------------------------------------
    # Byte-granular interface (process bodies)
    # ------------------------------------------------------------------
    def read(self, address: int, size: int) -> typing.Generator:
        """Read ``size`` bytes, one 16-bit word at a time."""
        words = self._word_count(address, size)
        duration = words * (NOR_READ_32B_NS / _WORDS_PER_OPERAND)
        yield from self.port.hold(duration)
        self.words_read += words
        if self.energy is not None:
            self.energy.charge_bytes(
                "storage", self.energy.model.nor_read_pj_per_byte, size)
        return self._contents.load(address, size)

    def write(self, address: int, data: bytes) -> typing.Generator:
        """Write ``data``, serialized into 16-bit word programs."""
        words = self._word_count(address, len(data))
        duration = words * (NOR_WRITE_32B_NS / _WORDS_PER_OPERAND)
        yield from self.port.hold(duration)
        self._contents.store(address, data)
        self.words_written += words
        if self.energy is not None:
            self.energy.charge_bytes(
                "storage", self.energy.model.nor_write_pj_per_byte,
                len(data))

    # ------------------------------------------------------------------
    # Functional access
    # ------------------------------------------------------------------
    def preload(self, address: int, data: bytes) -> None:
        """Zero-time data placement."""
        self._word_count(address, len(data))
        self._contents.store(address, data)

    def inspect(self, address: int, size: int) -> bytes:
        """Zero-time read-back."""
        self._word_count(address, size)
        return self._contents.load(address, size)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    @staticmethod
    def _word_count(address: int, size: int) -> int:
        """16-bit words the byte range touches; rejects a bad range."""
        if address < 0 or size < 1:
            raise ValueError(f"bad range: address={address} size={size}")
        return ((address + size - 1) // WORD_BYTES
                - address // WORD_BYTES + 1)
