"""DRAM buffers: host memory, accelerator memory, SSD caches.

DRAM here is a capacity-limited LRU block store with a flat access
latency and a shared-port bandwidth model.  It appears in three roles:
the host's main memory, the 1 GB internal buffer of every emulated SSD
and integrated accelerator (Section VI), and the accelerator-side DRAM
that DRAM-less removes.
"""

from __future__ import annotations

import collections
import typing

from repro.sim import Pool, Simulator

#: Row-hit DRAM access latency, ns (CAS-ish; coarse on purpose).
DRAM_ACCESS_NS = 50.0

#: Sustained DRAM bandwidth, bytes/ns (≈12.8 GB/s LPDDR-class).
DRAM_BANDWIDTH = 12.8


class DramBuffer:
    """Capacity-limited DRAM holding fixed-size blocks with LRU eviction."""

    def __init__(self, sim: Simulator, capacity_bytes: int,
                 block_bytes: int, name: str = "dram",
                 access_ns: float = DRAM_ACCESS_NS,
                 bandwidth: float = DRAM_BANDWIDTH) -> None:
        if capacity_bytes < block_bytes:
            raise ValueError("capacity smaller than one block")
        if block_bytes < 1:
            raise ValueError(f"block size must be >= 1, got {block_bytes}")
        self.sim = sim
        self.name = name
        self.capacity_blocks = capacity_bytes // block_bytes
        self.block_bytes = block_bytes
        self.access_ns = access_ns
        self.bandwidth = bandwidth
        self.port = Pool(sim, capacity=1, name=f"{name}.port")
        # block id -> dirty flag; OrderedDict gives LRU order.
        self._blocks: "collections.OrderedDict[int, bool]" = (
            collections.OrderedDict())
        self.hits = 0
        self.misses = 0
        self.bytes_accessed = 0
        self.evictions = 0

    def __contains__(self, block: int) -> bool:
        return block in self._blocks

    def __len__(self) -> int:
        return len(self._blocks)

    # ------------------------------------------------------------------
    # Timed access
    # ------------------------------------------------------------------
    def access(self, size: int) -> typing.Generator:
        """Process body: one read-or-write touching ``size`` bytes."""
        if size < 1:
            raise ValueError(f"access size must be >= 1, got {size}")
        duration = self.access_ns + size / self.bandwidth
        yield from self.port.hold(duration)
        self.bytes_accessed += size

    # ------------------------------------------------------------------
    # Block residency (zero-time bookkeeping; pair with access())
    # ------------------------------------------------------------------
    def lookup(self, block: int) -> bool:
        """Hit test; counts and refreshes LRU position on hit."""
        if block in self._blocks:
            self._blocks.move_to_end(block)
            self.hits += 1
            return True
        self.misses += 1
        return False

    def insert(self, block: int, dirty: bool = False
               ) -> typing.Tuple[int, bool] | None:
        """Add a block; returns the evicted ``(block, dirty)`` if any."""
        evicted = None
        if block not in self._blocks and (
                len(self._blocks) >= self.capacity_blocks):
            victim, victim_dirty = self._blocks.popitem(last=False)
            evicted = (victim, victim_dirty)
            self.evictions += 1
        previous_dirty = self._blocks.get(block, False)
        self._blocks[block] = previous_dirty or dirty
        self._blocks.move_to_end(block)
        return evicted

    def mark_dirty(self, block: int) -> None:
        """Flag a resident block as modified."""
        if block not in self._blocks:
            raise KeyError(f"block {block} not resident")
        self._blocks[block] = True

    def dirty_blocks(self) -> typing.List[int]:
        """Blocks that must be written back on flush."""
        return [block for block, dirty in self._blocks.items() if dirty]

    def drop(self, block: int) -> None:
        """Remove a block without writeback (after an explicit flush)."""
        self._blocks.pop(block, None)

    def clear_residency(self) -> None:
        """Drop every block without writeback.

        Only safe when no block is dirty (flush first); raises
        otherwise so data loss cannot pass silently.
        """
        dirty = self.dirty_blocks()
        if dirty:
            raise RuntimeError(
                f"{self.name}: clear_residency with dirty blocks {dirty[:5]}"
            )
        self._blocks.clear()
