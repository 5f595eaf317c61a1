"""MemoryBackend implementations for every data path of Table I."""

from __future__ import annotations

import typing

from repro.controller import PramSubsystem
from repro.energy import EnergyAccount
from repro.sim import Pool, Simulator
from repro.storage.dram import DramBuffer
from repro.storage.nor_pram import NorPram
from repro.storage.pages import SparsePages

#: The block size backends operate at (matches the L2 request unit).
BLOCK_BYTES = 512


class DramBackend:
    """All data resident in accelerator DRAM (the Ideal system)."""

    def __init__(self, sim: Simulator, energy: EnergyAccount,
                 capacity_bytes: int = 1 << 34) -> None:
        self.sim = sim
        self.energy = energy
        self.dram = DramBuffer(sim, capacity_bytes, BLOCK_BYTES,
                               name="accel.dram")
        self._contents = SparsePages()

    def read_block(self, address: int, size: int) -> typing.Generator:
        yield from self.dram.access(size)
        self._charge(size)
        return self.inspect(address, size)

    def write_block(self, address: int, data: bytes) -> typing.Generator:
        yield from self.dram.access(len(data))
        self._charge(len(data))
        self.preload(address, data)

    def flush(self) -> typing.Generator:
        return
        yield  # pragma: no cover

    def announce_writes(self, address: int, size: int) -> None:
        pass  # DRAM has no write asymmetry to prepare for

    def preload(self, address: int, data: bytes) -> None:
        self._contents.store(address, data)

    def inspect(self, address: int, size: int) -> bytes:
        return self._contents.load(address, size)

    def _charge(self, size: int) -> None:
        self.energy.charge_bytes(
            "dram", self.energy.model.accel_dram_pj_per_byte, size)


class HostSsdBackend:
    """Accelerator DRAM slice in front of an external SSD (Hetero-*).

    The DRAM holds ``capacity_bytes`` of blocks; misses fetch through
    ``mover`` — either the full host storage stack or a P2P DMA engine.
    Dirty evictions and the final flush push output blocks back out
    over the same path.
    """

    #: Fault readahead: a miss pulls this many blocks (the OS/driver
    #: readahead window on the file the kernel is streaming).
    READAHEAD_BLOCKS = 8

    def __init__(self, sim: Simulator, energy: EnergyAccount, mover,
                 capacity_bytes: int) -> None:
        self.sim = sim
        self.energy = energy
        self.mover = mover
        self.dram = DramBuffer(sim, capacity_bytes, BLOCK_BYTES,
                               name="accel.dram")
        self._payloads: typing.Dict[int, bytes] = {}
        self.ssd_reads = 0
        self.ssd_writes = 0

    # ------------------------------------------------------------------
    def read_block(self, address: int, size: int) -> typing.Generator:
        block = address // BLOCK_BYTES
        base = block * BLOCK_BYTES
        if self.dram.lookup(block):
            yield from self._dram_access(size)
            payload = self._payloads.get(block)
            if payload is None:
                payload = self.mover.ssd.inspect(base, BLOCK_BYTES)
            return payload[address - base:address - base + size]
        # Miss: fault the block in with readahead.
        first = block - block % self.READAHEAD_BLOCKS
        extent = self.READAHEAD_BLOCKS * BLOCK_BYTES
        data = yield from self.mover.load_to_accelerator(
            first * BLOCK_BYTES, extent)
        self.ssd_reads += 1
        yield from self._dram_access(extent)
        for i in range(self.READAHEAD_BLOCKS):
            self._payloads[first + i] = data[i * BLOCK_BYTES:
                                             (i + 1) * BLOCK_BYTES]
            yield from self._install(first + i, dirty=False)
        offset = address - first * BLOCK_BYTES
        return data[offset:offset + size]

    def write_block(self, address: int, data: bytes) -> typing.Generator:
        block = address // BLOCK_BYTES
        base = block * BLOCK_BYTES
        yield from self._dram_access(len(data))
        existing = bytearray(self._payloads.get(block, bytes(BLOCK_BYTES)))
        existing[address - base:address - base + len(data)] = data
        self._payloads[block] = bytes(existing)
        self.dram.lookup(block)  # refresh if resident
        yield from self._install(block, dirty=True)

    def flush(self) -> typing.Generator:
        """Write dirty blocks back to the SSD in bulk extents.

        The host writes results "in an inverse order of the data
        loading procedure" — large sequential file writes, so
        contiguous dirty blocks coalesce into up-to-64 KB transfers
        instead of paying the software stack per block.
        """
        extent_blocks = (64 * 1024) // BLOCK_BYTES
        dirty = sorted(self.dram.dirty_blocks())
        run: typing.List[int] = []
        for block in dirty:
            if run and (block != run[-1] + 1
                        or len(run) >= extent_blocks):
                yield from self._flush_extent(run)
                run = []
            run.append(block)
        if run:
            yield from self._flush_extent(run)
        # The SSD's own 1 GB DRAM buffer acks the writes; its media
        # programs happen off the critical path (no fsync per kernel).

    def _flush_extent(self, blocks: typing.List[int]) -> typing.Generator:
        payload = b"".join(
            self._payloads.get(block, bytes(BLOCK_BYTES))
            for block in blocks)
        yield from self.mover.store_from_accelerator(
            blocks[0] * BLOCK_BYTES, payload)
        self.ssd_writes += 1
        for block in blocks:
            self.dram.drop(block)
            self._payloads.pop(block, None)

    def announce_writes(self, address: int, size: int) -> None:
        pass  # the DRAM front absorbs writes; nothing to prepare

    def preload(self, address: int, data: bytes) -> None:
        self.mover.ssd.preload(address, data)

    def inspect(self, address: int, size: int) -> bytes:
        block = address // BLOCK_BYTES
        base = block * BLOCK_BYTES
        payload = self._payloads.get(block)
        if payload is not None and base <= address and (
                address + size <= base + BLOCK_BYTES):
            return payload[address - base:address - base + size]
        return self.mover.ssd.inspect(address, size)

    # ------------------------------------------------------------------
    def stage_input(self, address: int, size: int) -> typing.Generator:
        """Process body: pre-stage as much input as the DRAM slice holds.

        Models Figure 5a's preparation phase — the host pushes data to
        the accelerator DRAM before kernels launch, in large file-read
        chunks (64 KB here).
        """
        resident_limit = self.dram.capacity_blocks * BLOCK_BYTES
        to_stage = min(size, resident_limit)
        chunk = 64 * 1024
        cursor = 0
        while cursor < to_stage:
            span = min(chunk, to_stage - cursor)
            yield from self.mover.load_to_accelerator(address + cursor, span)
            self.ssd_reads += 1
            first = (address + cursor) // BLOCK_BYTES
            last = (address + cursor + span - 1) // BLOCK_BYTES
            for block in range(first, last + 1):
                yield from self._install(block, dirty=False)
            cursor += span

    # ------------------------------------------------------------------
    def _dram_access(self, size: int) -> typing.Generator:
        yield from self.dram.access(size)
        self.energy.charge_bytes(
            "dram", self.energy.model.accel_dram_pj_per_byte, size)

    def _install(self, block: int, dirty: bool) -> typing.Generator:
        evicted = self.dram.insert(block, dirty=dirty)
        if evicted is not None:
            victim, victim_dirty = evicted
            payload = self._payloads.pop(victim, bytes(BLOCK_BYTES))
            if victim_dirty:
                yield from self.mover.store_from_accelerator(
                    victim * BLOCK_BYTES, payload)
                self.ssd_writes += 1


class SsdAdapterBackend:
    """Flash SSD mounted *inside* the accelerator (Integrated-*).

    The SSD's own DRAM buffer and page-granular FTL do the work; the
    adapter only forwards blocks.  Sub-page writes pay the device's
    read-modify-write, the pollution effect the paper highlights.
    """

    def __init__(self, sim: Simulator, energy: EnergyAccount, ssd) -> None:
        self.sim = sim
        self.energy = energy
        self.ssd = ssd

    def read_block(self, address: int, size: int) -> typing.Generator:
        data = yield from self.ssd.read(address, size)
        return data

    def write_block(self, address: int, data: bytes) -> typing.Generator:
        yield from self.ssd.write(address, data)

    def flush(self) -> typing.Generator:
        yield from self.ssd.flush()

    def invalidate_buffer(self) -> None:
        """Per-kernel-round buffer teardown (after a flush)."""
        self.ssd.invalidate_buffer()

    def announce_writes(self, address: int, size: int) -> None:
        pass  # flash FTLs take no overwrite hints

    def preload(self, address: int, data: bytes) -> None:
        self.ssd.preload(address, data)

    def inspect(self, address: int, size: int) -> bytes:
        return self.ssd.inspect(address, size)


class PageBufferBackend:
    """3x nm PRAM behind a page interface with a DRAM buffer (PAGE-buffer).

    Every miss moves a whole 16 KB page: chips serve the page in
    parallel (32 chips x 512 B each), so page reads are fast, but byte
    granularity is lost — small reads still drag full pages through the
    DRAM buffer, and page writes serialize 16 chunk programs per chip.
    """

    PAGE_BYTES = 16 * 1024
    CHIPS = 32
    CHUNK = 32  # PRAM bank-level I/O width

    #: Accelerator-side page-fault handling per page move: block-layer
    #: command processing plus buffer management.
    PAGE_COMMAND_NS = 10_000.0

    def __init__(self, sim: Simulator, energy: EnergyAccount,
                 buffer_bytes: int = 1 << 30,
                 read_chunk_ns: float = 100.0,
                 write_chunk_ns: float = 18_000.0) -> None:
        self.sim = sim
        self.energy = energy
        self.buffer = DramBuffer(sim, buffer_bytes, self.PAGE_BYTES,
                                 name="pagebuf.dram")
        self.port = Pool(sim, capacity=1, name="pagebuf.port")
        self.read_chunk_ns = read_chunk_ns
        self.write_chunk_ns = write_chunk_ns
        self._contents = SparsePages()
        self.pages_read = 0
        self.pages_written = 0

    # One page = CHIPS slices of (PAGE/CHIPS) bytes; each chip moves
    # its slice CHUNK bytes at a time, serially.
    def _page_read_ns(self) -> float:
        chunks_per_chip = self.PAGE_BYTES // self.CHIPS // self.CHUNK
        return self.PAGE_COMMAND_NS + chunks_per_chip * self.read_chunk_ns

    def _page_write_ns(self) -> float:
        chunks_per_chip = self.PAGE_BYTES // self.CHIPS // self.CHUNK
        return self.PAGE_COMMAND_NS + chunks_per_chip * self.write_chunk_ns

    def read_block(self, address: int, size: int) -> typing.Generator:
        page = address // self.PAGE_BYTES
        yield from self._ensure_resident(page)
        yield from self.buffer.access(size)
        self.energy.charge_bytes(
            "dram", self.energy.model.accel_dram_pj_per_byte, size)
        return self.inspect(address, size)

    def write_block(self, address: int, data: bytes) -> typing.Generator:
        page = address // self.PAGE_BYTES
        # Byte granularity is unavailable: the page must be resident
        # (read-modify-write) before the buffer absorbs the write.
        yield from self._ensure_resident(page)
        yield from self.buffer.access(len(data))
        self.energy.charge_bytes(
            "dram", self.energy.model.accel_dram_pj_per_byte, len(data))
        self.preload(address, data)
        self.buffer.insert(page, dirty=True)

    def flush(self) -> typing.Generator:
        for page in self.buffer.dirty_blocks():
            yield from self._program_page(page)
            self.buffer.drop(page)

    def invalidate_buffer(self) -> None:
        """Per-kernel-round buffer teardown (after a flush).

        The contents are the medium's and stay; only DRAM residency is
        dropped.
        """
        self.buffer.clear_residency()

    def announce_writes(self, address: int, size: int) -> None:
        pass  # the page interface hides the medium from hints

    def preload(self, address: int, data: bytes) -> None:
        self._contents.store(address, data)

    def inspect(self, address: int, size: int) -> bytes:
        return self._contents.load(address, size)

    # ------------------------------------------------------------------
    def _ensure_resident(self, page: int) -> typing.Generator:
        if self.buffer.lookup(page):
            return
        yield from self._fetch_page(page)
        evicted = self.buffer.insert(page, dirty=False)
        if evicted is not None and evicted[1]:
            yield from self._program_page(evicted[0])

    def _fetch_page(self, page: int) -> typing.Generator:
        duration = self._page_read_ns()
        yield from self.port.hold(duration)
        self.pages_read += 1
        self.energy.charge_bytes(
            "pram", self.energy.model.pram_read_pj_per_byte,
            self.PAGE_BYTES)
        # The page interface drives the same PRAM chips through a
        # controller of its own.
        self.energy.charge_power(
            "controller", self.energy.model.fpga_controller_w, duration)

    def _program_page(self, page: int) -> typing.Generator:
        duration = self._page_write_ns()
        yield from self.port.hold(duration)
        self.pages_written += 1
        self.energy.charge_bytes(
            "pram", self.energy.model.pram_set_pj_per_byte,
            self.PAGE_BYTES)
        self.energy.charge_power(
            "controller", self.energy.model.fpga_controller_w, duration)


class NorBackend:
    """Direct byte access over the NOR-interface PRAM (NOR-intf)."""

    def __init__(self, sim: Simulator, energy: EnergyAccount,
                 nor: NorPram | None = None) -> None:
        self.sim = sim
        self.energy = energy
        self.nor = nor if nor is not None else NorPram(sim, energy=energy)

    def read_block(self, address: int, size: int) -> typing.Generator:
        data = yield from self.nor.read(address, size)
        return data

    def write_block(self, address: int, data: bytes) -> typing.Generator:
        yield from self.nor.write(address, data)

    def flush(self) -> typing.Generator:
        return
        yield  # pragma: no cover

    def announce_writes(self, address: int, size: int) -> None:
        pass  # the legacy interface offers no pre-reset command

    def preload(self, address: int, data: bytes) -> None:
        self.nor.preload(address, data)

    def inspect(self, address: int, size: int) -> bytes:
        return self.nor.inspect(address, size)


class PramBackend:
    """The DRAM-less data path: the hardware-automated PRAM subsystem.

    ``announce_writes`` feeds the selective-erasing hint store and
    kicks off a background drain so pre-RESETs overlap with compute.
    """

    def __init__(self, sim: Simulator, energy: EnergyAccount,
                 subsystem: PramSubsystem) -> None:
        self.sim = sim
        self.energy = energy
        self.subsystem = subsystem

    def read_block(self, address: int, size: int) -> typing.Generator:
        data = yield from self.subsystem.read(address, size)
        self.energy.charge_bytes(
            "pram", self.energy.model.pram_read_pj_per_byte, size)
        return data

    def write_block(self, address: int, data: bytes) -> typing.Generator:
        yield from self.subsystem.write(address, data)
        self.energy.charge_bytes(
            "pram", self.energy.model.pram_set_pj_per_byte, len(data))
        # Controller (FPGA) power is charged once over the whole run by
        # DramlessSystem._finalize_energy — per-request charging would
        # double count overlapping accesses.

    def flush(self) -> typing.Generator:
        return  # PRAM writes are persistent on completion
        yield  # pragma: no cover

    def announce_writes(self, address: int, size: int) -> None:
        self.subsystem.register_write_hint(address, size)
        self.sim.process(self.subsystem.drain_hints(),
                         name="selective-erase")

    def preload(self, address: int, data: bytes) -> None:
        self.subsystem.preload(address, data)

    def inspect(self, address: int, size: int) -> bytes:
        return self.subsystem.inspect(address, size)
