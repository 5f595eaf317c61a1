"""PRAM SSD and NOR-interface PRAM tests."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.energy import EnergyAccount
from repro.sim import Simulator
from repro.storage import NorPram, PramSsd
from repro.storage.nor_pram import (
    NOR_READ_32B_NS,
    NOR_WRITE_32B_NS,
    PAGE_BYTES,
    WORD_BYTES,
)
from repro.storage.optane import PRAM_SSD_READ_NS


def run(sim, generator):
    proc = sim.process(generator)
    sim.run()
    if not proc.ok:
        raise proc.value
    return proc.value


class TestPramSsd:
    def test_roundtrip(self):
        sim = Simulator()
        ssd = PramSsd(sim)
        payload = bytes(range(100))

        def driver():
            yield from ssd.write(64, payload)
            data = yield from ssd.read(64, len(payload))
            return data

        assert run(sim, driver()) == payload

    def test_reads_fan_out_over_units(self):
        from repro.storage.ssd import SSD_COMMAND_NS

        sim = Simulator()
        ssd = PramSsd(sim, parallelism=8)

        def driver():
            yield from ssd.read(0, 8 * 32)

        run(sim, driver())
        # 8 chunks on 8 units: one wave of 100 ns + command overhead.
        assert sim.now == pytest.approx(SSD_COMMAND_NS + PRAM_SSD_READ_NS)

    def test_bulk_write_serializes_into_chunk_programs(self):
        sim = Simulator()
        ssd = PramSsd(sim, parallelism=8)

        def driver():
            yield from ssd.write(0, bytes(64 * 32))  # 64 chunks

        run(sim, driver())
        # 64 pristine programs over 8 units = 8 waves of 10 us.
        assert sim.now >= 8 * 10_000.0
        assert ssd.chunks_written == 64

    def test_log_structured_overwrites_stay_set_only(self):
        # The SSD's translation layer remaps writes to pre-RESET
        # locations, so overwrites do not pay the RESET pass inline.
        sim = Simulator()
        ssd = PramSsd(sim)
        ssd.preload(0, bytes(32))

        def driver():
            start = sim.now
            yield from ssd.write(0, b"\x01" * 32)
            return sim.now - start

        elapsed = run(sim, driver())
        assert 10_000.0 <= elapsed < 20_000.0
        # Data still correct after the remap.
        assert ssd.inspect(0, 32) == b"\x01" * 32

    def test_preload_inspect(self):
        ssd = PramSsd(Simulator())
        ssd.preload(10, b"hello")
        assert ssd.inspect(10, 5) == b"hello"

    def test_parallelism_validated(self):
        with pytest.raises(ValueError):
            PramSsd(Simulator(), parallelism=0)

    def test_energy_charged(self):
        energy = EnergyAccount()
        sim = Simulator()
        ssd = PramSsd(sim, energy=energy)

        def driver():
            yield from ssd.write(0, bytes(32))
            yield from ssd.read(0, 32)

        run(sim, driver())
        assert energy.by_category()["storage"] > 0


class TestNorPram:
    def test_roundtrip(self):
        sim = Simulator()
        nor = NorPram(sim)
        payload = bytes(range(50))

        def driver():
            yield from nor.write(7, payload)
            data = yield from nor.read(7, len(payload))
            return data

        assert run(sim, driver()) == payload

    def test_read_bandwidth_is_half_of_flash_page_bandwidth(self):
        sim = Simulator()
        nor = NorPram(sim)

        def driver():
            yield from nor.read(0, 32)

        run(sim, driver())
        assert sim.now == pytest.approx(NOR_READ_32B_NS)
        # Section VI-A: NOR read bandwidth ~2x worse than flash's
        # 16KB/25us page bandwidth.
        nor_bw = 32 / NOR_READ_32B_NS          # bytes per ns
        flash_bw = 16 * 1024 / 25_000.0
        assert 1.5 <= flash_bw / nor_bw <= 2.5

    def test_write_is_an_order_slower_than_new_pram(self):
        sim = Simulator()
        nor = NorPram(sim)

        def driver():
            yield from nor.write(0, bytes(32))

        run(sim, driver())
        assert sim.now == pytest.approx(NOR_WRITE_32B_NS)
        # Block-level calibration: a serialized 512 B write is ~3-6x a
        # DRAM-less block program (10-18 us striped over 16 banks).
        block_write_ns = 16 * NOR_WRITE_32B_NS
        assert 3.0 <= block_write_ns / 18_000.0 <= 6.5
        assert block_write_ns / 10_000.0 >= 5.0

    def test_accesses_serialize_on_the_single_port(self):
        sim = Simulator()
        nor = NorPram(sim)

        def reader():
            yield from nor.read(0, 32)

        sim.process(reader())
        sim.process(reader())
        sim.run()
        assert sim.now == pytest.approx(2 * NOR_READ_32B_NS)

    def test_word_serialization_scales_with_size(self):
        sim = Simulator()
        nor = NorPram(sim)

        def driver():
            yield from nor.read(0, 64)

        run(sim, driver())
        assert sim.now == pytest.approx(2 * NOR_READ_32B_NS)

    def test_unaligned_access(self):
        sim = Simulator()
        nor = NorPram(sim)
        nor.preload(0, bytes(range(16)))

        def driver():
            data = yield from nor.read(3, 5)
            return data

        assert run(sim, driver()) == bytes(range(3, 8))

    def test_preload_inspect(self):
        nor = NorPram(Simulator())
        nor.preload(100, b"abc")
        assert nor.inspect(100, 3) == b"abc"

    def test_bad_range_rejected(self):
        sim = Simulator()
        nor = NorPram(sim)

        def driver():
            with pytest.raises(ValueError):
                yield from nor.read(0, 0)

        run(sim, driver())

    @pytest.mark.parametrize("call", [
        lambda nor: nor.preload(-1, b"x"),
        lambda nor: nor.preload(0, b""),
        lambda nor: nor.inspect(0, 0),
        lambda nor: nor.inspect(-2, 4),
    ])
    def test_bad_zero_time_range_rejected(self, call):
        with pytest.raises(ValueError):
            call(NorPram(Simulator()))


class WordStore:
    """Reference store: one dict entry per 16-bit word, unwritten = 0."""

    def __init__(self):
        self.words = {}

    def store(self, address, data):
        for offset, byte in enumerate(data):
            word, lane = divmod(address + offset, WORD_BYTES)
            shift = 8 * lane
            value = self.words.get(word, 0) & ~(0xFF << shift)
            self.words[word] = value | byte << shift

    def load(self, address, size):
        return bytes(
            self.words.get(word, 0) >> 8 * lane & 0xFF
            for word, lane in (divmod(address + offset, WORD_BYTES)
                               for offset in range(size)))


#: Addresses anywhere in three pages, and just around page boundaries.
ADDRESSES = st.one_of(
    st.integers(0, 3 * PAGE_BYTES),
    st.builds(lambda page, delta: page * PAGE_BYTES + delta,
              st.integers(1, 3), st.integers(-9, 9)))

#: ``(write?, address, data or size)``: writes carry data, reads a size.
ACCESSES = st.lists(st.one_of(
    st.tuples(st.just(True), ADDRESSES, st.binary(min_size=1, max_size=600)),
    st.tuples(st.just(False), ADDRESSES, st.integers(1, PAGE_BYTES + 9)),
), max_size=25)


class TestNorPramPages:
    @settings(max_examples=200, deadline=None)
    @given(ACCESSES)
    def test_zero_time_access_matches_the_word_store(self, accesses):
        nor = NorPram(Simulator())
        reference = WordStore()
        for write, address, argument in accesses:
            if write:
                nor.preload(address, argument)
                reference.store(address, argument)
            else:
                assert (nor.inspect(address, argument)
                        == reference.load(address, argument))

    @settings(max_examples=60, deadline=None)
    @given(ACCESSES)
    def test_timed_access_counts_words_and_time(self, accesses):
        sim = Simulator()
        nor = NorPram(sim)
        reference = WordStore()
        expected = {"words_read": 0, "words_written": 0, "ns": 0.0}

        def driver():
            for write, address, argument in accesses:
                size = len(argument) if write else argument
                words = ((address + size - 1) // WORD_BYTES
                         - address // WORD_BYTES + 1)
                if write:
                    yield from nor.write(address, argument)
                    reference.store(address, argument)
                    expected["words_written"] += words
                    expected["ns"] += words * NOR_WRITE_32B_NS / 16
                else:
                    data = yield from nor.read(address, argument)
                    assert data == reference.load(address, argument)
                    expected["words_read"] += words
                    expected["ns"] += words * NOR_READ_32B_NS / 16

        run(sim, driver())
        assert nor.words_read == expected["words_read"]
        assert nor.words_written == expected["words_written"]
        assert sim.now == pytest.approx(expected["ns"])

    def test_unwritten_ranges_read_zero_around_written_ones(self):
        nor = NorPram(Simulator())
        nor.preload(PAGE_BYTES - 3, b"\xff" * 6)
        assert nor.inspect(0, 8) == bytes(8)
        assert nor.inspect(PAGE_BYTES - 5, 10) == (
            b"\x00\x00" + b"\xff" * 6 + b"\x00\x00")
        assert nor.inspect(5 * PAGE_BYTES + 1, 3) == bytes(3)
