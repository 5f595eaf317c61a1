"""Request translation: flat requests → per-row chunk plans.

The translator is the planning half of the command generator: it
decomposes a :class:`~repro.controller.request.MemoryRequest` into
row-sized chunks (a request never crosses a module boundary unaligned —
the address map guarantees each chunk sits in one row) and assigns each
chunk a row-buffer id.  Whether a chunk can skip the pre-active or
activate phase is decided at issue time from live buffer state, not
here.
"""

from __future__ import annotations

import typing

from repro.controller.request import MemoryRequest, Op
from repro.pram.address import AddressMap, PramAddress
from repro.pram.errors import AddressError


class ChunkPlan(typing.NamedTuple):
    """One row-sized slice of a memory request.

    A named tuple for the same reason as
    :class:`~repro.pram.address.PramAddress`: one per chunk on the
    planning hot path, never mutated after construction.
    """

    request: MemoryRequest
    address: PramAddress
    offset: int          # byte offset inside the parent request
    size: int            # bytes in this chunk
    buffer_id: int       # RAB/RDB pair the command generator will select

    @property
    def is_write(self) -> bool:
        """Writes go through the overlay window; reads through RDBs."""
        return self.request.op is Op.WRITE

    @property
    def payload(self) -> bytes | None:
        """This chunk's slice of the request payload (writes only)."""
        if self.request.data is None:
            return None
        return self.request.data[self.offset:self.offset + self.size]


class RetirementMap:
    """Bad-row retirement: remaps worn-out rows onto reserved spares.

    The top ``spare_rows`` physical rows of every partition are carved
    out as replacements (the wear-leveling gap region shrinks to
    match).  When program-and-verify retries exhaust on a row the
    channel controller retires it: data moves to the next free spare
    and all later accesses follow the remap.  Spares can themselves be
    retired (chains are followed), and when a partition runs out the
    controller degrades the request instead of raising.
    """

    def __init__(self, rows_per_partition: int, spare_rows: int) -> None:
        if spare_rows < 0:
            raise ValueError(f"spare_rows must be >= 0, got {spare_rows}")
        if spare_rows >= rows_per_partition:
            raise ValueError(
                f"spare_rows {spare_rows} must leave data rows in the "
                f"{rows_per_partition}-row partition"
            )
        self.rows_per_partition = rows_per_partition
        self.spare_rows = spare_rows
        self.first_spare = rows_per_partition - spare_rows
        self._remap: typing.Dict[typing.Tuple[int, int, int], int] = {}
        self._next_spare: typing.Dict[typing.Tuple[int, int], int] = {}
        self.retired = 0

    def translate(self, module: int, partition: int, row: int) -> int:
        """Follow the remap chain from ``row`` to its live location."""
        if not self._remap:
            return row
        seen = 0
        while (target := self._remap.get((module, partition, row))) is not None:
            row = target
            seen += 1
            if seen > self.spare_rows:  # pragma: no cover - invariant
                raise RuntimeError("retirement remap chain cycles")
        return row

    def retire(self, module: int, partition: int,
               row: int) -> int | None:
        """Retire ``row``; returns the spare it now maps to, or None.

        None means the partition's spares are exhausted — the caller
        must degrade the request rather than remap.
        """
        key = (module, partition)
        cursor = self.first_spare + self._next_spare.get(key, 0)
        if cursor >= self.rows_per_partition:
            return None
        self._next_spare[key] = self._next_spare.get(key, 0) + 1
        self._remap[(module, partition, row)] = cursor
        self.retired += 1
        return cursor


class AccessPlanner:
    """Stateless-ish planner bound to one address map.

    Buffer ids rotate round-robin per module so consecutive chunks use
    different RAB/RDB pairs — the precondition for the interleaving
    scheduler to overlap one chunk's burst with another's array access.
    """

    def __init__(self, address_map: AddressMap | None = None) -> None:
        self.address_map = address_map or AddressMap()
        self._next_buffer: typing.Dict[typing.Tuple[int, int], int] = {}

    def plan(self, request: MemoryRequest) -> typing.List[ChunkPlan]:
        """Decompose ``request`` into ordered row-sized chunks.

        Only the first chunk goes through
        :meth:`~repro.pram.address.AddressMap.decompose`; successive
        row-aligned chunks advance the device coordinates incrementally
        (module, then channel, then partition, then row — the stripe
        order), which avoids re-dividing the flat address on every
        chunk of this hot path.
        """
        address_map = self.address_map
        geometry = address_map.geometry
        chunks: typing.List[ChunkPlan] = []
        size = request.size
        if size <= 0:
            # Preserve iter_rows semantics: negative sizes raise, zero
            # yields no chunks.
            for _ in address_map.iter_rows(request.address, size):
                pass  # pragma: no cover - iter_rows raises or is empty
            return chunks
        row_bytes = geometry.row_bytes
        modules = geometry.modules_per_channel
        channel_count = geometry.channels
        partitions = geometry.partitions_per_bank
        rows = geometry.rows_per_partition
        rdb_count = geometry.rdb_count
        next_buffer = self._next_buffer
        # Build the named tuples through tuple.__new__, as their _make
        # does: it skips their Python-level __new__, two calls a chunk.
        new: typing.Callable[..., typing.Any] = tuple.__new__
        address = address_map.decompose(request.address)
        channel, module, partition, row, column = address
        cursor = request.address
        produced = 0
        while True:
            chunk = row_bytes - column
            remaining = size - produced
            if remaining < chunk:
                chunk = remaining
            module_key = (channel, module)
            buffer_id = next_buffer.get(module_key, 0)
            next_buffer[module_key] = (buffer_id + 1) % rdb_count
            chunks.append(new(
                ChunkPlan, (request, address, produced, chunk, buffer_id)))
            produced += chunk
            if produced >= size:
                return chunks
            cursor += chunk
            module += 1
            if module == modules:
                module = 0
                channel += 1
                if channel == channel_count:
                    channel = 0
                    partition += 1
                    if partition == partitions:
                        partition = 0
                        row += 1
                        if row == rows:
                            raise AddressError(
                                f"address {cursor:#x} beyond capacity "
                                f"{geometry.total_bytes:#x}"
                            )
            column = 0
            address = new(PramAddress, (channel, module, partition, row, 0))

    def chunks_by_channel(self, request: MemoryRequest) -> typing.Dict[
            int, typing.List[ChunkPlan]]:
        """Chunks grouped by channel, preserving order within each."""
        grouped: typing.Dict[int, typing.List[ChunkPlan]] = {}
        for chunk in self.plan(request):
            grouped.setdefault(chunk.address.channel, []).append(chunk)
        return grouped
