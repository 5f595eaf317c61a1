"""Kernel images and the programming model of Figure 10.

Users pack per-app code segments plus shared code into a flat image
(``pack_data``), push it over PCIe into the accelerator's memory
(``push_data``), and the server parses it back (``unpack_data``),
loading each segment at the address the metadata names and booting
agents at the recorded entry points.

The wire format is deliberately simple and self-describing::

    magic "DLKI" | u32 segment_count
    per segment: u32 name_len | name utf-8 | u64 load_address
                 | u64 entry_offset | u32 payload_len | payload
"""

from __future__ import annotations

import dataclasses
import struct
import typing

MAGIC = b"DLKI"


@dataclasses.dataclass(frozen=True)
class KernelSegment:
    """One code segment: an app kernel or the shared common code."""

    name: str
    load_address: int
    entry_offset: int
    payload: bytes

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("segment needs a name")
        if self.load_address < 0 or self.entry_offset < 0:
            raise ValueError("addresses must be non-negative")
        if self.entry_offset > len(self.payload):
            raise ValueError("entry offset beyond the segment payload")

    @property
    def boot_address(self) -> int:
        """Absolute entry point once loaded."""
        return self.load_address + self.entry_offset


@dataclasses.dataclass(frozen=True)
class KernelImage:
    """A parsed kernel image: ordered segments."""

    segments: typing.Tuple[KernelSegment, ...]

    def segment(self, name: str) -> KernelSegment:
        """Look up one segment by name."""
        for segment in self.segments:
            if segment.name == name:
                return segment
        raise KeyError(f"no segment named {name!r}")

    @property
    def names(self) -> typing.Tuple[str, ...]:
        """Segment names in image order."""
        return tuple(segment.name for segment in self.segments)

    @property
    def total_bytes(self) -> int:
        """Payload bytes across all segments."""
        return sum(len(segment.payload) for segment in self.segments)


def pack_data(segments: typing.Sequence[KernelSegment]) -> bytes:
    """Serialize segments into the flat image format (packData)."""
    if not segments:
        raise ValueError("an image needs at least one segment")
    parts = [MAGIC, struct.pack("<I", len(segments))]
    for segment in segments:
        name = segment.name.encode("utf-8")
        parts.append(struct.pack("<I", len(name)))
        parts.append(name)
        parts.append(struct.pack("<QQI", segment.load_address,
                                 segment.entry_offset,
                                 len(segment.payload)))
        parts.append(segment.payload)
    return b"".join(parts)


def unpack_data(image: bytes) -> KernelImage:
    """Parse a flat image back into segments (unpackData)."""
    if image[:4] != MAGIC:
        raise ValueError("not a kernel image (bad magic)")
    offset = 4
    try:
        (count,) = struct.unpack_from("<I", image, offset)
        offset += 4
        segments = []
        for _ in range(count):
            (name_len,) = struct.unpack_from("<I", image, offset)
            offset += 4
            name = image[offset:offset + name_len].decode("utf-8")
            offset += name_len
            load_address, entry_offset, payload_len = struct.unpack_from(
                "<QQI", image, offset)
            offset += struct.calcsize("<QQI")
            payload = image[offset:offset + payload_len]
            if len(payload) != payload_len:
                raise ValueError("truncated segment payload")
            offset += payload_len
            segments.append(KernelSegment(name, load_address,
                                          entry_offset, payload))
    except struct.error as error:
        raise ValueError(f"truncated kernel image: {error}") from error
    if offset != len(image):
        raise ValueError(f"{len(image) - offset} trailing bytes in image")
    return KernelImage(tuple(segments))


def push_data(sim, link, image: bytes) -> typing.Generator:
    """Process body: ship the image over a PCIe link (pushData).

    ``link`` is any object with a ``transfer(size)`` process method
    (e.g. :class:`repro.host.PcieLink`).
    """
    yield from link.transfer(len(image))
