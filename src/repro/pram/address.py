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
        one three-phase access, walking a channel's share of them with
        :meth:`channel_rows`.  The region is checked before the first
        chunk, so a caller that acts per chunk acts on all or none.
        Only the first chunk goes through :meth:`decompose`; each later
        one advances the device coordinates in stripe order (module,
        then channel, then partition, then row).
        """
        if self._region_units(flat, size) is None:
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
            column = 0
            address = new(PramAddress, (channel, module, partition, row, 0))

    # A stripe unit is one row of one module: unit u = flat // row_bytes
    # sits on module u % modules and channel (u // modules) % channels,
    # so a channel owns every ``channels``-th run of ``modules`` units.
    def _region_units(self, flat: int, size: int
                      ) -> typing.Tuple[int, int] | None:
        """First and one-past-last stripe unit of ``[flat, flat + size)``
        (None when empty); raises :class:`AddressError` for a negative
        size or a region that starts or ends outside the capacity."""
        if size < 0:
            raise AddressError(f"negative size: {size}")
        if size == 0:
            return None
        total = self._total_bytes
        if flat < 0:
            raise AddressError(f"negative address: {flat}")
        if flat >= total:
            raise AddressError(
                f"address {flat:#x} beyond capacity {total:#x}")
        if flat + size > total:
            # The error names the region's first byte past capacity.
            raise AddressError(
                f"address {total:#x} beyond capacity {total:#x}")
        row_bytes = self._row_bytes
        return flat // row_bytes, (flat + size - 1) // row_bytes + 1

    def channel_row_count(self, flat: int, size: int, channel: int) -> int:
        """How many of :meth:`iter_rows`' chunks of the region fall on
        ``channel``, counted without visiting them."""
        units = self._region_units(flat, size)
        if units is None:
            return 0
        modules = self._modules
        period = modules * self._channels
        offset = channel * modules

        def owned_below(unit: int) -> int:
            full, rest = divmod(unit, period)
            return full * modules + min(max(rest - offset, 0), modules)

        return owned_below(units[1]) - owned_below(units[0])

    def channel_rows(self, flat: int, size: int, channel: int
                     ) -> typing.Iterator[typing.Tuple[PramAddress, int, int]]:
        """:meth:`iter_rows`' triples of the region that fall on
        ``channel``, in the same order; the region is checked before
        the first, and the other channels' stripes are skipped whole,
        never decomposed."""
        units = self._region_units(flat, size)
        if units is None:
            return
        first, end = units
        row_bytes = self._row_bytes
        modules = self._modules
        channels = self._channels
        partitions = self._partitions
        stop = flat + size
        new: typing.Callable[..., typing.Any] = tuple.__new__
        # The channel's first run of units at or after the region start.
        group = first // modules
        group += (channel - group) % channels
        last_group = (end - 1) // modules
        while group <= last_group:
            partition_row = group // channels
            partition = partition_row % partitions
            row = partition_row // partitions
            base = group * modules
            for unit in range(max(first, base), min(end, base + modules)):
                start = unit * row_bytes
                # Only the region's first chunk can begin mid-row.
                begin = start if start > flat else flat
                yield (new(PramAddress, (channel, unit - base, partition,
                                         row, begin - start)),
                       begin - flat, min(start + row_bytes, stop) - begin)
            group += channels

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
