"""RAB/RDB row-buffer file tests."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.pram import RowBufferSet


def make_buffers(count=4):
    return RowBufferSet(count=count, row_bytes=32)


ROW = bytes(range(32))


class TestBasics:
    def test_table2_shape(self):
        buffers = make_buffers()
        assert len(buffers) == 4

    def test_needs_at_least_one_pair(self):
        with pytest.raises(ValueError):
            RowBufferSet(count=0, row_bytes=32)

    def test_pair_id_bounds(self):
        buffers = make_buffers()
        with pytest.raises(ValueError):
            buffers.pair(4)

    def test_fresh_buffers_hold_nothing(self):
        buffers = make_buffers()
        assert buffers.find_rab(0) is None
        assert buffers.find_rdb(0, 0) is None


class TestRabLoading:
    def test_load_and_find(self):
        buffers = make_buffers()
        buffers.load_rab(1, upper_row=77)
        pair = buffers.find_rab(77)
        assert pair is not None
        assert pair.buffer_id == 1
        assert buffers.rab_hits == 1

    def test_load_rab_invalidates_paired_rdb(self):
        buffers = make_buffers()
        buffers.load_rab(0, 5)
        buffers.load_rdb(0, partition=2, row=640, data=ROW)
        buffers.load_rab(0, 6)
        assert buffers.find_rdb(2, 640) is None


class TestRdbLoading:
    def test_load_and_find(self):
        buffers = make_buffers()
        buffers.load_rab(2, 5)
        buffers.load_rdb(2, partition=3, row=645, data=ROW)
        pair = buffers.find_rdb(3, 645)
        assert pair is not None
        assert pair.data == ROW
        assert buffers.rdb_hits == 1

    def test_load_requires_full_row(self):
        buffers = make_buffers()
        with pytest.raises(ValueError):
            buffers.load_rdb(0, 0, 0, b"short")

    def test_find_mismatched_partition_misses(self):
        buffers = make_buffers()
        buffers.load_rdb(0, partition=1, row=10, data=ROW)
        assert buffers.find_rdb(2, 10) is None


class TestLru:
    def test_victim_is_least_recently_used(self):
        buffers = make_buffers(count=2)
        buffers.load_rab(0, 1)
        buffers.load_rab(1, 2)
        buffers.find_rab(1)  # touch pair 0
        victim = buffers.victim()
        assert victim.buffer_id == 1

    def test_victim_counts_misses(self):
        buffers = make_buffers()
        buffers.victim()
        buffers.victim()
        assert buffers.misses == 2

    def test_untouched_pairs_are_picked_first(self):
        buffers = make_buffers(count=3)
        buffers.load_rab(0, 1)
        victim = buffers.victim()
        assert victim.buffer_id in (1, 2)


class TestInvalidation:
    def test_invalidate_row_drops_matching_rdb(self):
        buffers = make_buffers()
        buffers.load_rdb(0, partition=1, row=9, data=ROW)
        buffers.invalidate_row(partition=1, row=9)
        assert buffers.find_rdb(1, 9) is None

    def test_invalidate_row_leaves_others(self):
        buffers = make_buffers()
        buffers.load_rdb(0, partition=1, row=9, data=ROW)
        buffers.load_rdb(1, partition=1, row=10, data=ROW)
        buffers.invalidate_row(partition=1, row=9)
        assert buffers.find_rdb(1, 10) is not None

    def test_invalidate_all(self):
        buffers = make_buffers()
        buffers.load_rab(0, 3)
        buffers.load_rdb(0, 0, 384, ROW)
        buffers.invalidate_all()
        assert buffers.find_rab(3) is None
        assert buffers.find_rdb(0, 384) is None


# ----------------------------------------------------------------------
# The one-pass probe against find_rdb, then find_rab, then the plan
# ----------------------------------------------------------------------
def _reference_probe(buffers, partition, row, upper, planned, exclude,
                     skipping):
    """The read path's probe as two lookups and an LRU fallback."""
    if skipping:
        rdb = buffers.find_rdb(partition, row, exclude=exclude)
        if rdb is not None:
            return rdb.buffer_id, False, False
        rab = buffers.find_rab(upper, exclude=exclude)
        if rab is not None:
            return rab.buffer_id, False, True
    if planned in exclude:
        free = [b for b in range(len(buffers)) if b not in exclude]
        planned = min(free, key=lambda b: buffers.pair(b).last_use)
    return planned, True, True


def _buffer_state(buffers):
    return ([(pair.upper_row, pair.rab_valid, pair.partition, pair.row,
              pair.rdb_valid, pair.last_use) for pair in buffers._pairs],
            buffers.rab_hits, buffers.rdb_hits)


_pairs = st.integers(min_value=0, max_value=3)
_rows = st.integers(min_value=0, max_value=2)
buffer_steps = st.one_of(
    st.tuples(st.just("load_rab"), _pairs, _rows),
    st.tuples(st.just("load_rdb"), _pairs, _rows, _rows),
    st.tuples(st.just("invalidate_row"), _rows, _rows),
    # A probe: partition, row, upper row, planned pair, busy pairs
    # (at most three, as the pair slots allow) and phase skipping.
    st.tuples(st.just("probe"), _rows, _rows, _rows, _pairs,
              st.frozensets(_pairs, max_size=3), st.booleans()))


@given(st.lists(buffer_steps, max_size=30))
@settings(max_examples=300, deadline=None)
def test_probe_matches_the_lookups_it_replaced(steps):
    buffers, reference = make_buffers(), make_buffers()
    for step in steps:
        if step[0] == "probe":
            outcome = buffers.probe(*step[1:])
            assert outcome == _reference_probe(reference, *step[1:])
        elif step[0] == "load_rdb":
            for subject in (buffers, reference):
                subject.load_rdb(*step[1:], data=ROW)
        else:
            for subject in (buffers, reference):
                getattr(subject, step[0])(*step[1:])
        assert _buffer_state(buffers) == _buffer_state(reference)
