"""A PRAM-based SSD (Optane-like), for Hetero-PRAM baselines.

Same block interface as :class:`~repro.storage.ssd.EmulatedSsd`, but
the medium is PRAM accessed in 32-byte chunks across a limited number
of parallel units.  Reads are fast (0.1 us per chunk, Table I); bulk
writes serialize page-sized requests into byte-granular programs —
exactly why the paper finds Hetero-PRAM *worse* than flash SSDs for
write-heavy workloads.
"""

from __future__ import annotations

import typing

from repro.energy import EnergyAccount
from repro.pram.constants import PRAM_WRITE_PRISTINE_NS
from repro.sim import Pool, Simulator
from repro.storage.pages import SparsePages
from repro.storage.ssd import SSD_COMMAND_NS

#: Medium chunk: PRAM bank-level parallel I/O width.
CHUNK_BYTES = 32

#: Table I: NVM read 0.1 us for PRAM-based devices.
PRAM_SSD_READ_NS = 100.0

#: Concurrent chunk operations the device's internal channels sustain.
PRAM_SSD_PARALLELISM = 16


class PramSsd:
    """Block-interface SSD over a PRAM medium.

    A command pays the command overhead, then its chunks reserve units
    in chunk order and the command wakes once, when the last of them
    finishes.  It then applies every chunk's counter, contents and
    energy effect in one pass, in chunk order, as the same floats a
    per-chunk model gives.  Contents live in sparse 4 KiB pages
    (:class:`~repro.storage.pages.SparsePages`).
    """

    def __init__(self, sim: Simulator,
                 parallelism: int = PRAM_SSD_PARALLELISM,
                 energy: EnergyAccount | None = None,
                 name: str = "pram-ssd") -> None:
        if parallelism < 1:
            raise ValueError(f"parallelism must be >= 1, got {parallelism}")
        self.sim = sim
        self.name = name
        self.units = Pool(sim, capacity=parallelism, name=f"{name}.units")
        self.queue = Pool(sim, capacity=8, name=f"{name}.queue")
        self.energy = energy
        self._contents = SparsePages()
        self.chunks_read = 0
        self.chunks_written = 0
        self.commands = 0

    # ------------------------------------------------------------------
    # Block interface (process bodies)
    # ------------------------------------------------------------------
    def read(self, address: int, size: int) -> typing.Generator:
        """Read ``size`` bytes; chunk reads fan out over the units."""
        yield from self._command_overhead()
        count = _chunk_count(address, size)
        yield self.sim.deadline(
            self.units.reserve_many(count, PRAM_SSD_READ_NS))
        self.chunks_read += count
        if self.energy is not None:
            # A chunk read senses the whole chunk, partial or not.
            self.energy.charge_bytes_each(
                "storage", self.energy.model.pram_read_pj_per_byte,
                [CHUNK_BYTES] * count)
        return self._contents.load(address, size)

    def write(self, address: int, data: bytes) -> typing.Generator:
        """Write ``data``; each 32-byte chunk is a separate program.

        The SSD's translation layer is log-structured: writes remap to
        pre-RESET locations, so the SET-only latency applies; the RESET
        pass happens in background wear management.  (Kept as a
        parameter path: pass through
        :data:`~repro.pram.constants.PRAM_WRITE_OVERWRITE_NS` in studies
        of in-place devices.)
        """
        yield from self._command_overhead()
        size = len(data)
        count = _chunk_count(address, size)
        yield self.sim.deadline(
            self.units.reserve_many(count, PRAM_WRITE_PRISTINE_NS))
        self._contents.store(address, data)
        self.chunks_written += count
        if self.energy is not None:
            self.energy.charge_bytes_each(
                "storage", self.energy.model.pram_set_pj_per_byte,
                _chunk_spans(address, size, count))

    def flush(self) -> typing.Generator:
        """No internal volatile cache: flush is instantaneous."""
        return
        yield  # pragma: no cover - makes this a generator

    # ------------------------------------------------------------------
    # Functional access
    # ------------------------------------------------------------------
    def preload(self, address: int, data: bytes) -> None:
        """Zero-time data placement."""
        _chunk_count(address, len(data))
        self._contents.store(address, data)

    def inspect(self, address: int, size: int) -> bytes:
        """Zero-time read-back."""
        _chunk_count(address, size)
        return self._contents.load(address, size)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _command_overhead(self) -> typing.Generator:
        yield from self.queue.hold(SSD_COMMAND_NS)
        self.commands += 1
        if self.energy is not None:
            self.energy.charge_power(
                "storage", self.energy.model.ssd_controller_w,
                SSD_COMMAND_NS)


def _chunk_count(address: int, size: int) -> int:
    """32-byte chunks ``[address, address + size)`` touches; rejects a
    bad range."""
    if address < 0 or size < 0:
        raise ValueError(f"bad range: address={address} size={size}")
    if size == 0:
        return 0
    return (address + size - 1) // CHUNK_BYTES - address // CHUNK_BYTES + 1


def _chunk_spans(address: int, size: int,
                 count: int) -> typing.List[int]:
    """Bytes of each of the ``count`` chunks the range touches, in
    chunk order: a partial head and tail around whole chunks."""
    if count < 2:
        return [size] * count
    head = CHUNK_BYTES - address % CHUNK_BYTES
    tail = (address + size - 1) % CHUNK_BYTES + 1
    return [head] + [CHUNK_BYTES] * (count - 2) + [tail]
