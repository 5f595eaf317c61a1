"""Sparse byte contents in 4 KiB pages, shared by the storage models.

A device's contents are a byte-addressable space that is mostly
unwritten.  :class:`SparsePages` allocates a zero-filled 4 KiB page on
the first write into it, so a store or load costs one slice per page
it spans, whatever the device's access granularity (16-bit words,
32-byte chunks, single bytes).
"""

from __future__ import annotations

import typing

#: Granularity of the sparse store.  No device timing depends on it.
PAGE_BYTES = 4096


class SparsePages:
    """Byte contents in sparse 4 KiB pages; unwritten bytes read as zero.

    Callers validate their ranges: any integer address is a position.
    """

    __slots__ = ("_pages",)

    def __init__(self) -> None:
        self._pages: typing.Dict[int, bytearray] = {}  # page index -> data

    def load(self, address: int, size: int) -> bytes:
        """The ``size`` bytes at ``address`` (``b""`` when ``size`` < 1)."""
        pages = self._pages
        end = address + size
        pieces: typing.List[bytes] = []
        while address < end:
            index, offset = divmod(address, PAGE_BYTES)
            count = min(PAGE_BYTES - offset, end - address)
            page = pages.get(index)
            pieces.append(bytes(count) if page is None
                          else page[offset:offset + count])
            address += count
        return b"".join(pieces)

    def store(self, address: int, data: bytes) -> None:
        """Write ``data`` at ``address``, allocating pages on first use."""
        pages = self._pages
        position = 0
        while position < len(data):
            index, offset = divmod(address + position, PAGE_BYTES)
            count = min(PAGE_BYTES - offset, len(data) - position)
            page = pages.get(index)
            if page is None:
                page = pages[index] = bytearray(PAGE_BYTES)
            page[offset:offset + count] = data[position:position + count]
            position += count
