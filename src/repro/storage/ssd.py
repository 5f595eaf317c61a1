"""An emulated SSD: flash dies + FTL + internal DRAM buffer.

Matches the paper's emulation setup: "All SSDs used for this evaluation
are emulated on a real system, and the size of their internal DRAM
buffer is 1GB."  The FTL is a page-mapped, append-style translation
layer: overwrites remap to a fresh physical page and block erases are
charged in the background once a block's worth of remaps accumulates.
"""

from __future__ import annotations

import typing

from repro.energy import EnergyAccount
from repro.sim import Pool, Resource, Simulator
from repro.storage.dram import DramBuffer
from repro.storage.flash import PAGE_BYTES, PAGES_PER_BLOCK, FlashCellType, NandFlash

#: Device-side command processing (NVMe queue + firmware) per request.
SSD_COMMAND_NS = 8_000.0

#: Internal DRAM buffer size (Section VI).
SSD_BUFFER_BYTES = 1 * 1024 * 1024 * 1024


class EmulatedSsd:
    """Block storage device with a page-mapped FTL and a DRAM cache."""

    def __init__(self, sim: Simulator,
                 cell_type: FlashCellType = FlashCellType.MLC,
                 buffer_bytes: int = SSD_BUFFER_BYTES,
                 parallelism: int = 16,
                 energy: EnergyAccount | None = None,
                 name: str = "ssd") -> None:
        self.sim = sim
        self.name = name
        self.flash = NandFlash(sim, cell_type, parallelism=parallelism,
                               name=f"{name}.flash")
        self.buffer = DramBuffer(sim, buffer_bytes, PAGE_BYTES,
                                 name=f"{name}.buffer")
        self.queue = Pool(sim, capacity=8, name=f"{name}.queue")
        self.energy = energy
        # Per-page write locks: the sub-page read-modify-write sequence
        # spans simulation yields, so concurrent writers to one page
        # must serialize or updates are lost.
        self._page_locks: typing.Dict[int, Resource] = {}
        # FTL: logical page -> physical page, plus a free-page cursor.
        self._map: typing.Dict[int, int] = {}
        # Payloads of buffered pages (residency metadata lives in
        # self.buffer; contents live here).
        self._payloads: typing.Dict[int, bytes] = {}
        self._next_physical = 0
        self._invalidated = 0
        self.commands = 0
        self.page_bytes = PAGE_BYTES

    # ------------------------------------------------------------------
    # Block interface (process bodies)
    # ------------------------------------------------------------------
    def read(self, address: int, size: int) -> typing.Generator:
        """Read ``size`` bytes at byte ``address``; returns the bytes."""
        out = bytearray()
        for page, offset, chunk in self._pages_of(address, size):
            data = yield from self._read_page(page)
            out += data[offset:offset + chunk]
        return bytes(out)

    def write(self, address: int, data: bytes) -> typing.Generator:
        """Write ``data`` at byte ``address``.

        Sub-page writes read-modify-write the page — the pollution
        effect the paper blames for buffer-based systems' energy waste
        on read-intensive workloads.
        """
        cursor = 0
        for page, offset, chunk in self._pages_of(address, len(data)):
            lock = self._page_locks.setdefault(
                page, Resource(self.sim, capacity=1,
                               name=f"{self.name}.p{page}.lock"))
            grant = lock.request()
            yield grant
            try:
                if chunk < PAGE_BYTES:
                    existing = yield from self._read_page(page)
                    merged = bytearray(existing)
                    merged[offset:offset + chunk] = (
                        data[cursor:cursor + chunk])
                    payload = bytes(merged)
                else:
                    payload = data[cursor:cursor + chunk]
                yield from self._write_page(page, payload)
            finally:
                lock.release(grant)
            cursor += chunk

    def flush(self) -> typing.Generator:
        """Write every dirty buffered page down to flash."""
        for page in self.buffer.dirty_blocks():
            payload = self._page_payload(page)
            yield from self._program(page, payload)
            self.buffer.drop(page)
            self._payloads.pop(page, None)

    def invalidate_buffer(self) -> None:
        """Drop all clean buffered pages (zero time).

        Conventional per-kernel-execution data management re-prepares
        device data each round; call after :meth:`flush`.
        """
        for page in list(self._payloads):
            self.buffer.drop(page)
            self._payloads.pop(page, None)

    # ------------------------------------------------------------------
    # Functional access (experiment setup)
    # ------------------------------------------------------------------
    def preload(self, address: int, data: bytes) -> None:
        """Zero-time data placement (no buffer residency)."""
        cursor = 0
        for page, offset, chunk in self._pages_of(address, len(data)):
            physical = self._map.get(page)
            existing = (self.flash.peek(physical) if physical is not None
                        else bytes(PAGE_BYTES))
            merged = bytearray(existing)
            merged[offset:offset + chunk] = data[cursor:cursor + chunk]
            if physical is None:
                physical = self._next_physical
                self._next_physical += 1
                self._map[page] = physical
            self.flash.poke(physical, bytes(merged))
            cursor += chunk

    def inspect(self, address: int, size: int) -> bytes:
        """Zero-time read-back of current contents.

        Sees the device's buffered pages first (acked writes are
        durable — power-loss-protected cache), then flash.
        """
        out = bytearray()
        for page, offset, chunk in self._pages_of(address, size):
            data = self._page_payload(page)
            out += data[offset:offset + chunk]
        return bytes(out)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _pages_of(self, address: int, size: int) -> typing.Iterator[
            typing.Tuple[int, int, int]]:
        if address < 0 or size < 0:
            raise ValueError(f"bad range: address={address} size={size}")
        cursor = address
        remaining = size
        while remaining > 0:
            page = cursor // PAGE_BYTES
            offset = cursor % PAGE_BYTES
            chunk = min(PAGE_BYTES - offset, remaining)
            yield page, offset, chunk
            cursor += chunk
            remaining -= chunk

    def _command_overhead(self) -> typing.Generator:
        yield from self.queue.hold(SSD_COMMAND_NS)
        self.commands += 1
        if self.energy is not None:
            self.energy.charge_power(
                "storage", self.energy.model.ssd_controller_w,
                SSD_COMMAND_NS)

    def _read_page(self, page: int) -> typing.Generator:
        yield from self._command_overhead()
        if self.buffer.lookup(page):
            yield from self._buffer_access()
            return self._page_payload(page)
        physical = self._map.get(page)
        if physical is None:
            data = bytes(PAGE_BYTES)
        else:
            data = yield from self.flash.read_page(physical)
            if self.energy is not None:
                self.energy.charge(
                    "storage", self.energy.model.flash_read_nj_per_page)
        yield from self._install(page, data, dirty=False)
        return data

    def _write_page(self, page: int, payload: bytes) -> typing.Generator:
        yield from self._command_overhead()
        yield from self._install(page, payload, dirty=True)

    def _install(self, page: int, payload: bytes,
                 dirty: bool) -> typing.Generator:
        yield from self._buffer_access()
        self._payloads[page] = payload
        evicted = self.buffer.insert(page, dirty=dirty)
        if evicted is not None:
            victim, victim_dirty = evicted
            victim_payload = self._payloads.pop(victim, bytes(PAGE_BYTES))
            if victim_dirty:
                yield from self._program(victim, victim_payload)

    def _buffer_access(self) -> typing.Generator:
        yield from self.buffer.access(PAGE_BYTES)
        if self.energy is not None:
            self.energy.charge_bytes(
                "dram", self.energy.model.accel_dram_pj_per_byte, PAGE_BYTES)

    def _program(self, page: int, payload: bytes) -> typing.Generator:
        physical = self._next_physical
        self._next_physical += 1
        if page in self._map:
            self._invalidated += 1
        self._map[page] = physical
        yield from self.flash.program_page(physical, payload)
        if self.energy is not None:
            self.energy.charge(
                "storage", self.energy.model.flash_program_nj_per_page)
        # Background garbage collection: one block erase per block's
        # worth of invalidated pages (amortized, off the critical path).
        if self._invalidated >= PAGES_PER_BLOCK:
            self._invalidated -= PAGES_PER_BLOCK
            self.flash.blocks_erased += 1
            if self.energy is not None:
                self.energy.charge(
                    "storage", self.energy.model.flash_erase_nj_per_block)

    def _page_payload(self, page: int) -> bytes:
        payload = self._payloads.get(page)
        if payload is not None:
            return payload
        physical = self._map.get(page)
        return (self.flash.peek(physical) if physical is not None
                else bytes(PAGE_BYTES))
