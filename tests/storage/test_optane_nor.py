"""PRAM SSD and NOR-interface PRAM tests."""

import functools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.determinism import trace_of
from repro.energy import EnergyAccount
from repro.pram.constants import PRAM_WRITE_PRISTINE_NS
from repro.sim import Resource, Simulator
from repro.storage import NorPram, PramSsd
from repro.storage.nor_pram import (
    NOR_READ_32B_NS,
    NOR_WRITE_32B_NS,
    WORD_BYTES,
)
from repro.storage.optane import CHUNK_BYTES, PRAM_SSD_READ_NS
from repro.storage.pages import PAGE_BYTES
from repro.storage.ssd import SSD_COMMAND_NS


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


class PerChunkPramSsd:
    """The reference model: one process, one Resource hold and one
    store entry per chunk.

    Its command queue and units are ``Resource`` slots, each chunk runs
    as its own process holding a unit through ``sim.process(
    units.use(d))``, and each chunk's counter, storage and energy
    effects apply when that chunk finishes.  Contents are one 32-byte
    entry per written chunk.
    """

    def __init__(self, sim, parallelism, energy):
        self.sim = sim
        self.energy = energy
        self.units = Resource(sim, capacity=parallelism)
        self.queue = Resource(sim, capacity=8)
        self._chunks = {}  # chunk id -> 32 B
        self.chunks_read = 0
        self.chunks_written = 0
        self.commands = 0

    def read(self, address, size):
        yield from self._command_overhead()
        chunks = list(self._chunks_of(address, size))
        pending = [self.sim.process(self._read_chunk(c)) for c, _, _ in chunks]
        results = yield self.sim.all_of(pending)
        out = bytearray()
        for (_chunk, offset, span), proc in zip(chunks, pending):
            out += results[proc][offset:offset + span]
        return bytes(out)

    def write(self, address, data):
        yield from self._command_overhead()
        chunks = list(self._chunks_of(address, len(data)))
        cursor = 0
        pending = []
        for chunk, offset, span in chunks:
            payload = data[cursor:cursor + span]
            pending.append(self.sim.process(
                self._write_chunk(chunk, offset, payload)))
            cursor += span
        yield self.sim.all_of(pending)

    def preload(self, address, data):
        cursor = 0
        for chunk, offset, span in self._chunks_of(address, len(data)):
            self._put(chunk, offset, data[cursor:cursor + span])
            cursor += span

    def inspect(self, address, size):
        out = bytearray()
        for chunk, offset, span in self._chunks_of(address, size):
            out += self._chunks.get(chunk, bytes(CHUNK_BYTES))[
                offset:offset + span]
        return bytes(out)

    @staticmethod
    def _chunks_of(address, size):
        cursor = address
        remaining = size
        while remaining > 0:
            chunk = cursor // CHUNK_BYTES
            offset = cursor % CHUNK_BYTES
            span = min(CHUNK_BYTES - offset, remaining)
            yield chunk, offset, span
            cursor += span
            remaining -= span

    def _put(self, chunk, offset, payload):
        existing = bytearray(self._chunks.get(chunk, bytes(CHUNK_BYTES)))
        existing[offset:offset + len(payload)] = payload
        self._chunks[chunk] = bytes(existing)

    def _command_overhead(self):
        grant = self.queue.request()
        yield grant
        try:
            yield self.sim.timeout(SSD_COMMAND_NS)
            self.commands += 1
            self.energy.charge_power(
                "storage", self.energy.model.ssd_controller_w,
                SSD_COMMAND_NS)
        finally:
            self.queue.release(grant)

    def _read_chunk(self, chunk):
        yield self.sim.process(self.units.use(PRAM_SSD_READ_NS))
        self.chunks_read += 1
        self.energy.charge_bytes(
            "storage", self.energy.model.pram_read_pj_per_byte, CHUNK_BYTES)
        return self._chunks.get(chunk, bytes(CHUNK_BYTES))

    def _write_chunk(self, chunk, offset, payload):
        yield self.sim.process(self.units.use(PRAM_WRITE_PRISTINE_NS))
        self._put(chunk, offset, payload)
        self.chunks_written += 1
        self.energy.charge_bytes(
            "storage", self.energy.model.pram_set_pj_per_byte, len(payload))


#: Region the random commands touch: its first eight chunks, and the
#: eight chunks either side of the first 4 KiB page boundary, so
#: commands share chunks and some cross a page.
SSD_REGION = PAGE_BYTES + 8 * CHUNK_BYTES
SSD_ADDRESSES = st.one_of(
    st.integers(0, 8 * CHUNK_BYTES - 1),
    st.integers(PAGE_BYTES - 4 * CHUNK_BYTES,
                PAGE_BYTES + 4 * CHUNK_BYTES - 1))

#: ``(arrival, write?, address, size)``; few arrivals, so they tie.
SSD_COMMANDS = st.lists(
    st.tuples(st.sampled_from([0.0, 0.0, 100.0, 8_000.0, 8_100.0,
                               18_000.0, 30_000.0]),
              st.booleans(),
              SSD_ADDRESSES,
              st.integers(1, 3 * CHUNK_BYTES)),
    min_size=1, max_size=12)


def _drive_ssd(model, parallelism, commands):
    """Run every command in its own process; per command, its
    ``(issue, completion, data read)``, then the device and energy."""
    sim = Simulator()
    energy = EnergyAccount()
    ssd = model(sim, parallelism=parallelism, energy=energy)
    ssd.preload(0, bytes(i % 251 + 1 for i in range(SSD_REGION)))
    log = [None] * len(commands)

    def command(index, arrival, write, address, size):
        yield sim.timeout(arrival)
        issued = sim.now
        data = None
        if write:
            yield from ssd.write(address, bytes([index + 101]) * size)
        else:
            data = yield from ssd.read(address, size)
        log[index] = (issued, sim.now, data)

    for index, spec in enumerate(commands):
        sim.process(command(index, *spec))
    sim.run()
    return log, ssd, energy


def _chunk_span(address, size):
    return set(range(address // CHUNK_BYTES,
                     (address + size - 1) // CHUNK_BYTES + 1))


def _overlap(first, second):
    return first[0] <= second[1] and second[0] <= first[1]


class TestPramSsdAgainstPerChunkModel:
    @settings(max_examples=200, deadline=None)
    @given(parallelism=st.integers(1, 4), commands=SSD_COMMANDS)
    def test_same_instants_counters_data_and_energy(self, parallelism,
                                                    commands):
        ref_log, ref, ref_energy = _drive_ssd(PerChunkPramSsd, parallelism,
                                              commands)
        log, ssd, energy = _drive_ssd(PramSsd, parallelism, commands)
        # Every command is issued and completes at the same instants.
        assert [entry[:2] for entry in log] == [
            entry[:2] for entry in ref_log]
        assert (ssd.chunks_read, ssd.chunks_written, ssd.commands) == (
            ref.chunks_read, ref.chunks_written, ref.commands)
        # A chunk's data now lands when its command completes, so a
        # read overlapping a write of the same chunk may see either
        # version, and so may two overlapping writes of one chunk.
        chunks = [_chunk_span(address, size)
                  for _, _, address, size in commands]
        writes = [index for index, spec in enumerate(commands) if spec[1]]

        def contended(index, others):
            return any(other != index and chunks[index] & chunks[other]
                       and _overlap(log[index], log[other])
                       for other in others)

        for index, (_, write, _, _) in enumerate(commands):
            if not write and not contended(index, writes):
                assert log[index][2] == ref_log[index][2]
        if not any(contended(index, writes) for index in writes):
            assert (ssd.inspect(0, SSD_REGION)
                    == ref.inspect(0, SSD_REGION))
        # Energy adds the same terms in the same order unless commands
        # overlap in time; then their adds may interleave differently.
        expected = ref_energy.by_category()
        if not any(_overlap(log[first], log[second])
                   for second in range(len(commands))
                   for first in range(second)):
            assert energy.by_category() == expected
        else:
            measured = energy.by_category()
            assert measured.keys() == expected.keys()
            for category, value in expected.items():
                assert math.isclose(measured[category], value,
                                    rel_tol=1e-12)

    @pytest.mark.parametrize("write", [False, True])
    def test_dispatches_do_not_grow_with_the_chunk_count(self, write):
        def command(chunks):
            sim = Simulator()
            ssd = PramSsd(sim, parallelism=4)

            def driver():
                if write:
                    yield from ssd.write(16, bytes(chunks * CHUNK_BYTES))
                else:
                    yield from ssd.read(16, chunks * CHUNK_BYTES)

            sim.process(driver())
            sim.run()

        counts = {chunks: len(trace_of(functools.partial(command, chunks)))
                  for chunks in (1, 2, 7, 33)}
        assert len(set(counts.values())) == 1, counts


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
