"""Address decomposition for the PRAM subsystem.

Flat byte addresses (what the accelerator's MCU issues) stripe across
the device hierarchy to match Section III-B's layout — "the server
initiates a memory request based on 512 bytes per channel (32 bytes per
bank)"::

    flat = ((((row * partitions + partition) * channels + channel)
             * modules + module) * row_bytes) + column

so with the default geometry the stripe units are: 32 B per module
(bank), 512 B per channel, 1 KiB per partition rotation, 16 KiB per
row.  A 512-byte request therefore touches all 16 modules of one
channel at 32 bytes each, and successive requests rotate through the
partitions — the layout multi-resource aware interleaving exploits.

Three-phase addressing splits the row index into an upper part (stored
in a RAB during pre-active) and a lower part (delivered directly with
the activate command).
"""

from __future__ import annotations

import typing

from repro.pram.constants import PramGeometry
from repro.pram.errors import AddressError


class PramAddress(typing.NamedTuple):
    """A fully decomposed PRAM location.

    A named tuple rather than a dataclass: one is built per row chunk
    on the hot decompose path, and tuple construction is several times
    cheaper than frozen-dataclass ``__setattr__``.  Field order gives
    the same lexicographic comparison the old ``order=True`` dataclass
    had.
    """

    channel: int
    module: int
    partition: int
    row: int
    column: int  # byte offset within the row

    def row_key(self) -> typing.Tuple[int, int, int, int]:
        """Hashable identity of the row this address falls in."""
        return (self.channel, self.module, self.partition, self.row)


class AddressMap:
    """Bidirectional flat-address ⇄ :class:`PramAddress` mapping."""

    def __init__(self, geometry: PramGeometry | None = None) -> None:
        self.geometry = geometry or PramGeometry()
        # Derived strides are immutable once the geometry is fixed; the
        # decompose path is hot enough (one call per 32-byte chunk) that
        # re-deriving them through the geometry properties shows up in
        # profiles.
        geo = self.geometry
        self._row_bytes = geo.row_bytes
        self._modules = geo.modules_per_channel
        self._channels = geo.channels
        self._partitions = geo.partitions_per_bank
        self._rows = geo.rows_per_partition
        self._total_bytes = geo.total_bytes
        self._lower_bits = geo.lower_row_bits
        self._lower_mask = (1 << geo.lower_row_bits) - 1

    def decompose(self, flat: int) -> PramAddress:
        """Split a flat byte address into device coordinates."""
        if flat < 0:
            raise AddressError(f"negative address: {flat}")
        if flat >= self._total_bytes:
            raise AddressError(
                f"address {flat:#x} beyond capacity {self._total_bytes:#x}"
            )
        column = flat % self._row_bytes
        rest = flat // self._row_bytes
        module = rest % self._modules
        rest //= self._modules
        channel = rest % self._channels
        rest //= self._channels
        partition = rest % self._partitions
        row = rest // self._partitions
        return PramAddress(channel, module, partition, row, column)

    def compose(self, address: PramAddress) -> int:
        """Inverse of :meth:`decompose`."""
        geo = self.geometry
        self._validate(address)
        rest = address.row
        rest = rest * geo.partitions_per_bank + address.partition
        rest = rest * geo.channels + address.channel
        rest = rest * geo.modules_per_channel + address.module
        return rest * geo.row_bytes + address.column

    def split_row(self, row: int) -> typing.Tuple[int, int]:
        """Split a row index into (upper, lower) three-phase parts."""
        if not 0 <= row < self._rows:
            raise AddressError(f"row {row} out of range")
        return row >> self._lower_bits, row & self._lower_mask

    def join_row(self, upper: int, lower: int) -> int:
        """Recompose a row index from its (upper, lower) parts."""
        geo = self.geometry
        if lower < 0 or lower >= (1 << geo.lower_row_bits):
            raise AddressError(f"lower row part {lower} out of range")
        if upper < 0:
            raise AddressError(f"negative upper row part: {upper}")
        row = (upper << geo.lower_row_bits) | lower
        if row >= geo.rows_per_partition:
            raise AddressError(
                f"recomposed row {row} beyond partition "
                f"({geo.rows_per_partition} rows)"
            )
        return row

    def iter_rows(self, flat: int, size: int) -> typing.Iterator[
            typing.Tuple[PramAddress, int, int]]:
        """Yield (row-aligned address, offset-into-request, chunk bytes)
        triples covering ``[flat, flat + size)``.

        Requests larger than one 32-byte row are the norm (the server
        issues 512 B per channel); the controller turns each chunk into
        one three-phase access.  Only the first chunk goes through
        :meth:`decompose`; each later one advances the device
        coordinates in stripe order (module, then channel, then
        partition, then row), as
        :meth:`~repro.controller.translator.AccessPlanner.plan` does.
        """
        if size < 0:
            raise AddressError(f"negative size: {size}")
        if size == 0:
            return
        address = self.decompose(flat)
        channel, module, partition, row, column = address
        row_bytes = self._row_bytes
        # Named tuples built as their _make does, skipping their
        # Python-level __new__.
        new: typing.Callable[..., typing.Any] = tuple.__new__
        produced = 0
        while True:
            chunk = min(row_bytes - column, size - produced)
            yield address, produced, chunk
            produced += chunk
            if produced >= size:
                return
            module += 1
            if module == self._modules:
                module = 0
                channel += 1
                if channel == self._channels:
                    channel = 0
                    partition += 1
                    if partition == self._partitions:
                        partition = 0
                        row += 1
                        if row == self._rows:
                            raise AddressError(
                                f"address {flat + produced:#x} beyond "
                                f"capacity {self._total_bytes:#x}")
            column = 0
            address = new(PramAddress, (channel, module, partition, row, 0))

    def _validate(self, address: PramAddress) -> None:
        geo = self.geometry
        checks = (
            ("channel", address.channel, geo.channels),
            ("module", address.module, geo.modules_per_channel),
            ("partition", address.partition, geo.partitions_per_bank),
            ("row", address.row, geo.rows_per_partition),
            ("column", address.column, geo.row_bytes),
        )
        for name, value, bound in checks:
            if not 0 <= value < bound:
                raise AddressError(
                    f"{name}={value} out of range [0, {bound})"
                )
