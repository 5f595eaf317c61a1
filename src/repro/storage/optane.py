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
from repro.pram.constants import (
    PRAM_WRITE_OVERWRITE_NS,
    PRAM_WRITE_PRISTINE_NS,
)
from repro.sim import Pool, Simulator, Timeout
from repro.storage.ssd import SSD_COMMAND_NS

#: Medium chunk: PRAM bank-level parallel I/O width.
CHUNK_BYTES = 32

#: Table I: NVM read 0.1 us for PRAM-based devices.
PRAM_SSD_READ_NS = 100.0

#: Concurrent chunk operations the device's internal channels sustain.
PRAM_SSD_PARALLELISM = 16


class PramSsd:
    """Block-interface SSD over a PRAM medium."""

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
        self._storage: typing.Dict[int, bytes] = {}  # chunk id -> 32 B
        self._written: typing.Set[int] = set()
        self.chunks_read = 0
        self.chunks_written = 0
        self.commands = 0

    # ------------------------------------------------------------------
    # Block interface (process bodies)
    # ------------------------------------------------------------------
    def read(self, address: int, size: int) -> typing.Generator:
        """Read ``size`` bytes; chunk reads fan out over the units."""
        yield from self._command_overhead()
        chunks = list(self._chunks_of(address, size))
        yield self._chunk_holds(len(chunks), PRAM_SSD_READ_NS)
        out = bytearray()
        for chunk, offset, span in chunks:
            self.chunks_read += 1
            if self.energy is not None:
                self.energy.charge_bytes(
                    "storage", self.energy.model.pram_read_pj_per_byte,
                    CHUNK_BYTES)
            data = self._storage.get(chunk, bytes(CHUNK_BYTES))
            out += data[offset:offset + span]
        return bytes(out)

    def write(self, address: int, data: bytes) -> typing.Generator:
        """Write ``data``; each 32-byte chunk is a separate program.

        The SSD's translation layer is log-structured: writes remap to
        pre-RESET locations, so the SET-only latency applies; the RESET
        pass happens in background wear management.  (Kept as a
        parameter path: pass through PRAM_WRITE_OVERWRITE_NS in studies
        of in-place devices.)
        """
        yield from self._command_overhead()
        chunks = list(self._chunks_of(address, len(data)))
        yield self._chunk_holds(len(chunks), PRAM_WRITE_PRISTINE_NS)
        cursor = 0
        for chunk, offset, span in chunks:
            existing = bytearray(self._storage.get(chunk, bytes(CHUNK_BYTES)))
            existing[offset:offset + span] = data[cursor:cursor + span]
            self._storage[chunk] = bytes(existing)
            self._written.add(chunk)
            self.chunks_written += 1
            if self.energy is not None:
                self.energy.charge_bytes(
                    "storage", self.energy.model.pram_set_pj_per_byte, span)
            cursor += span

    def flush(self) -> typing.Generator:
        """No internal volatile cache: flush is instantaneous."""
        return
        yield  # pragma: no cover - makes this a generator

    # ------------------------------------------------------------------
    # Functional access
    # ------------------------------------------------------------------
    def preload(self, address: int, data: bytes) -> None:
        """Zero-time data placement."""
        cursor = 0
        for chunk, offset, span in self._chunks_of(address, len(data)):
            existing = bytearray(self._storage.get(chunk, bytes(CHUNK_BYTES)))
            existing[offset:offset + span] = data[cursor:cursor + span]
            self._storage[chunk] = bytes(existing)
            self._written.add(chunk)
            cursor += span

    def inspect(self, address: int, size: int) -> bytes:
        """Zero-time read-back."""
        out = bytearray()
        for chunk, offset, span in self._chunks_of(address, size):
            data = self._storage.get(chunk, bytes(CHUNK_BYTES))
            out += data[offset:offset + span]
        return bytes(out)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    @staticmethod
    def _chunks_of(address: int, size: int) -> typing.Iterator[
            typing.Tuple[int, int, int]]:
        if address < 0 or size < 0:
            raise ValueError(f"bad range: address={address} size={size}")
        cursor = address
        remaining = size
        while remaining > 0:
            chunk = cursor // CHUNK_BYTES
            offset = cursor % CHUNK_BYTES
            span = min(CHUNK_BYTES - offset, remaining)
            yield chunk, offset, span
            cursor += span
            remaining -= span

    def _command_overhead(self) -> typing.Generator:
        yield from self.queue.hold(SSD_COMMAND_NS)
        self.commands += 1
        if self.energy is not None:
            self.energy.charge_power(
                "storage", self.energy.model.ssd_controller_w,
                SSD_COMMAND_NS)

    def _chunk_holds(self, count: int, duration: float) -> Timeout:
        """One wake-up for ``count`` chunk operations of ``duration`` ns.

        The chunks reserve units in chunk order, the order in which
        per-chunk claims would reach the units, and the command wakes
        once, when the last of them finishes.  The caller then applies
        each chunk's effects in chunk order.
        """
        units = self.units
        finish = self.sim.now
        for _ in range(count):
            finish = max(finish, units.reserve(duration))
        return self.sim.deadline(finish)
