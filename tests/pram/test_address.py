"""Address decomposition tests, including hypothesis round-trips."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.pram import AddressError, AddressMap, PramAddress, PramGeometry

MAP = AddressMap()


class TestDecompose:
    def test_address_zero(self):
        assert MAP.decompose(0) == PramAddress(0, 0, 0, 0, 0)

    def test_column_is_lowest(self):
        assert MAP.decompose(31).column == 31
        assert MAP.decompose(32).column == 0
        assert MAP.decompose(32).module == 1

    def test_32_bytes_per_bank_striping(self):
        # Section III-B: a 512 B channel request = 32 B per bank.
        geo = MAP.geometry
        for i in range(geo.modules_per_channel):
            address = MAP.decompose(i * geo.row_bytes)
            assert address.module == i
            assert address.channel == 0

    def test_512_bytes_per_channel_striping(self):
        geo = MAP.geometry
        channel_stride = geo.row_bytes * geo.modules_per_channel
        assert channel_stride == 512
        assert MAP.decompose(channel_stride).channel == 1
        assert MAP.decompose(channel_stride).module == 0

    def test_partition_rotates_every_kilobyte(self):
        geo = MAP.geometry
        partition_stride = (geo.row_bytes * geo.modules_per_channel
                            * geo.channels)
        assert partition_stride == 1024
        address = MAP.decompose(partition_stride)
        assert address.partition == 1
        assert address.row == 0

    def test_row_advances_after_all_partitions(self):
        geo = MAP.geometry
        row_stride = (geo.row_bytes * geo.modules_per_channel
                      * geo.channels * geo.partitions_per_bank)
        assert row_stride == 16 * 1024
        address = MAP.decompose(row_stride)
        assert address.row == 1
        assert address.partition == 0

    def test_last_byte(self):
        geo = MAP.geometry
        address = MAP.decompose(geo.total_bytes - 1)
        assert address.channel == geo.channels - 1
        assert address.column == geo.row_bytes - 1

    def test_negative_rejected(self):
        with pytest.raises(AddressError):
            MAP.decompose(-1)

    def test_beyond_capacity_rejected(self):
        with pytest.raises(AddressError):
            MAP.decompose(MAP.geometry.total_bytes)


class TestCompose:
    def test_inverse_of_decompose_on_edges(self):
        geo = MAP.geometry
        for flat in (0, 31, 32, geo.partition_bytes, geo.module_bytes,
                     geo.channel_bytes, geo.total_bytes - 1):
            assert MAP.compose(MAP.decompose(flat)) == flat

    def test_validates_fields(self):
        with pytest.raises(AddressError):
            MAP.compose(PramAddress(0, 0, 99, 0, 0))
        with pytest.raises(AddressError):
            MAP.compose(PramAddress(0, 0, 0, 0, 32))

    @given(st.integers(min_value=0,
                       max_value=PramGeometry().total_bytes - 1))
    @settings(max_examples=200)
    def test_roundtrip_property(self, flat):
        assert MAP.compose(MAP.decompose(flat)) == flat


class TestRowSplit:
    def test_split_and_join(self):
        upper, lower = MAP.split_row(0b1010101_0110011)
        assert MAP.join_row(upper, lower) == 0b1010101_0110011

    def test_lower_bits_width(self):
        geo = MAP.geometry
        _, lower = MAP.split_row(geo.rows_per_partition - 1)
        assert lower < (1 << geo.lower_row_bits)

    def test_split_rejects_out_of_range(self):
        with pytest.raises(AddressError):
            MAP.split_row(MAP.geometry.rows_per_partition)

    def test_join_rejects_bad_lower(self):
        with pytest.raises(AddressError):
            MAP.join_row(0, 1 << MAP.geometry.lower_row_bits)

    def test_join_rejects_overflow(self):
        geo = MAP.geometry
        with pytest.raises(AddressError):
            MAP.join_row(1 << geo.upper_row_bits, 0)

    @given(st.integers(min_value=0,
                       max_value=PramGeometry().rows_per_partition - 1))
    @settings(max_examples=200)
    def test_split_join_roundtrip_property(self, row):
        upper, lower = MAP.split_row(row)
        assert MAP.join_row(upper, lower) == row


class TestIterRows:
    def test_single_row_chunk(self):
        chunks = list(MAP.iter_rows(0, 16))
        assert len(chunks) == 1
        address, offset, size = chunks[0]
        assert (address.row, address.column, offset, size) == (0, 0, 0, 16)

    def test_unaligned_request_spans_modules(self):
        chunks = list(MAP.iter_rows(24, 16))
        assert [(a.module, a.column, o, s) for a, o, s in chunks] == [
            (0, 24, 0, 8),
            (1, 0, 8, 8),
        ]

    def test_512_byte_server_request(self):
        # The server issues 512 B per channel (Section III-B): the
        # request fans out as 32 B to each of the 16 modules.
        chunks = list(MAP.iter_rows(0, 512))
        assert len(chunks) == 512 // 32
        assert sum(size for _, _, size in chunks) == 512
        assert [a.module for a, _, _ in chunks] == list(range(16))
        assert all(a.channel == 0 for a, _, _ in chunks)

    def test_zero_size_yields_nothing(self):
        assert list(MAP.iter_rows(100, 0)) == []

    def test_negative_size_rejected(self):
        with pytest.raises(AddressError):
            list(MAP.iter_rows(0, -1))

    @given(st.integers(min_value=0, max_value=2 ** 20),
           st.integers(min_value=1, max_value=4096))
    @settings(max_examples=100)
    def test_chunks_tile_the_request_property(self, flat, size):
        chunks = list(MAP.iter_rows(flat, size))
        assert sum(s for _, _, s in chunks) == size
        offsets = [o for _, o, _ in chunks]
        assert offsets == sorted(offsets)
        assert offsets[0] == 0
        for address, _, chunk_size in chunks:
            assert address.column + chunk_size <= MAP.geometry.row_bytes


# ----------------------------------------------------------------------
# One channel's rows of a region, against iter_rows filtered by channel
# ----------------------------------------------------------------------
@st.composite
def _geometries(draw):
    return PramGeometry(
        channels=draw(st.integers(min_value=1, max_value=3)),
        modules_per_channel=draw(st.integers(min_value=1, max_value=4)),
        partitions_per_bank=draw(st.integers(min_value=1, max_value=3)),
        tiles_per_partition=1, bitlines_per_tile=256,
        wordlines_per_tile=draw(st.integers(min_value=1, max_value=4)),
        row_bytes=draw(st.sampled_from([4, 8, 32])))


def _filtered(address_map, flat, size, channel):
    """iter_rows' chunks on ``channel``."""
    return [triple for triple in address_map.iter_rows(flat, size)
            if triple[0].channel == channel]


def _listed(address_map, flat, size, channel):
    return list(address_map.channel_rows(flat, size, channel))


def _outcome(function, *args):
    """What ``function(*args)`` returns, or the AddressError it raises."""
    try:
        return function(*args)
    except AddressError as error:
        return f"AddressError: {error}"


class TestChannelRows:
    @given(_geometries(), st.data())
    @settings(max_examples=300, deadline=None)
    def test_equals_iter_rows_filtered_by_channel(self, geometry, data):
        address_map = AddressMap(geometry)
        total, row_bytes = geometry.total_bytes, geometry.row_bytes
        # Row-aligned and unaligned ends, past-capacity ends, and zero
        # and negative sizes and starts.
        flat = data.draw(st.one_of(
            st.integers(min_value=-2, max_value=total + 2),
            st.integers(min_value=0, max_value=total // row_bytes).map(
                lambda row: row * row_bytes)))
        size = data.draw(st.one_of(
            st.integers(min_value=-2, max_value=total + 2),
            st.integers(min_value=0, max_value=total // row_bytes).map(
                lambda rows: rows * row_bytes - flat % row_bytes)))
        for channel in range(geometry.channels):
            args = (flat, size, channel)
            expected = _outcome(_filtered, address_map, *args)
            assert _outcome(_listed, address_map, *args) == expected
            count = _outcome(address_map.channel_row_count, *args)
            if isinstance(expected, str):
                assert count == expected
            else:
                assert count == len(expected)

    def test_refuses_before_yielding(self):
        # Both walks check the whole region before their first chunk,
        # so a caller acting per chunk acts on all of it or none.
        geometry = PramGeometry(channels=2, modules_per_channel=2,
                                partitions_per_bank=2, tiles_per_partition=1,
                                bitlines_per_tile=256, wordlines_per_tile=4)
        address_map = AddressMap(geometry)
        for rows in (address_map.channel_rows(960, 128, 1),
                     address_map.iter_rows(960, 128)):
            with pytest.raises(AddressError,
                               match="address 0x400 beyond capacity 0x400"):
                next(rows)

    def test_default_geometry_stripe(self):
        # Section III-B: a 1 KiB request covers 16 modules per channel.
        rows = list(MAP.channel_rows(0, 1024, 1))
        assert [address.module for address, _, _ in rows] == list(range(16))
        assert {address.channel for address, _, _ in rows} == {1}
        assert [offset for _, offset, _ in rows] == list(range(512, 1024, 32))
        assert MAP.channel_row_count(0, 1024, 1) == 16
        assert MAP.channel_row_count(16, 1024, 0) == 17
