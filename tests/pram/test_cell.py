"""Cell-state tracker tests: the SET/RESET asymmetry selective erasing uses."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.pram import CellState, WordStateTracker


def make_tracker():
    return WordStateTracker(words_per_row=8)


class TestStates:
    def test_factory_state_is_pristine(self):
        tracker = make_tracker()
        assert tracker.state(0, 0) is CellState.PRISTINE

    def test_program_marks_programmed(self):
        tracker = make_tracker()
        tracker.program(0, [0, 1])
        assert tracker.state(0, 0) is CellState.PROGRAMMED
        assert tracker.state(0, 1) is CellState.PROGRAMMED
        assert tracker.state(0, 2) is CellState.PRISTINE

    def test_reset_returns_to_pristine(self):
        tracker = make_tracker()
        tracker.program(5, [3])
        tracker.reset(5, [3])
        assert tracker.state(5, 3) is CellState.PRISTINE

    def test_word_bounds_enforced(self):
        tracker = make_tracker()
        with pytest.raises(ValueError):
            tracker.state(0, 8)
        with pytest.raises(ValueError):
            tracker.program(0, [8])
        with pytest.raises(ValueError):
            tracker.reset(0, [-1])

    @pytest.mark.parametrize("operation", ["program", "set_pass", "reset"])
    def test_out_of_range_word_changes_nothing(self, operation):
        tracker = make_tracker()
        tracker.program(0, [1])
        before = (tracker.programmed_words, tracker.writes_to(0, 0),
                  tracker.writes_to(0, 1), tracker.total_set_passes,
                  tracker.total_reset_passes)
        # The first out-of-range word is the one named, and the
        # in-range words before it are left untouched.
        with pytest.raises(ValueError, match=r"word 9 out of range"):
            getattr(tracker, operation)(0, [0, 1, 9, -1])
        assert (tracker.programmed_words, tracker.writes_to(0, 0),
                tracker.writes_to(0, 1), tracker.total_set_passes,
                tracker.total_reset_passes) == before

    def test_words_per_row_must_be_positive(self):
        with pytest.raises(ValueError):
            WordStateTracker(0)


class TestResetPassDecision:
    def test_first_program_needs_no_reset(self):
        tracker = make_tracker()
        assert tracker.program(0, [0]) is False

    def test_overwrite_needs_reset(self):
        tracker = make_tracker()
        tracker.program(0, [0])
        assert tracker.program(0, [0]) is True

    def test_one_programmed_word_forces_reset_for_whole_unit(self):
        tracker = make_tracker()
        tracker.program(0, [2])
        assert tracker.program(0, [0, 1, 2, 3]) is True

    def test_program_after_reset_is_set_only(self):
        # The selective-erasing payoff.
        tracker = make_tracker()
        tracker.program(0, [0, 1])
        tracker.reset(0, [0, 1])
        assert tracker.program(0, [0, 1]) is False

    def test_needs_reset_is_pure(self):
        tracker = make_tracker()
        tracker.program(0, [0])
        assert tracker.needs_reset(0, [0]) is True
        assert tracker.needs_reset(0, [1]) is False
        # No state change from asking.
        assert tracker.state(0, 1) is CellState.PRISTINE


class TestEnduranceAccounting:
    def test_write_counts_accumulate(self):
        tracker = make_tracker()
        tracker.program(0, [0])
        tracker.program(0, [0])
        tracker.reset(0, [0])
        assert tracker.writes_to(0, 0) == 3

    def test_max_writes(self):
        tracker = make_tracker()
        tracker.program(0, [0])
        tracker.program(0, [0])
        tracker.program(1, [1])
        assert tracker.max_writes() == 2

    def test_max_writes_of_fresh_tracker(self):
        assert make_tracker().max_writes() == 0

    def test_pass_counters(self):
        tracker = make_tracker()
        tracker.program(0, [0, 1])        # 2 SET
        tracker.program(0, [0])           # 1 SET + 1 RESET (overwrite)
        tracker.reset(0, [1])             # 1 RESET
        assert tracker.total_set_passes == 3
        assert tracker.total_reset_passes == 2


class TestErase:
    def test_erase_rows_clears_state(self):
        tracker = make_tracker()
        tracker.program(0, [0])
        tracker.program(1, [0])
        tracker.erase_rows([0])
        assert tracker.state(0, 0) is CellState.PRISTINE
        assert tracker.state(1, 0) is CellState.PROGRAMMED

    def test_programmed_words_count(self):
        tracker = make_tracker()
        tracker.program(0, [0, 1, 2])
        assert tracker.programmed_words == 3
        tracker.erase_rows([0])
        assert tracker.programmed_words == 0


@given(st.lists(
    st.tuples(st.sampled_from(["program", "reset"]),
              st.integers(min_value=0, max_value=3),
              st.integers(min_value=0, max_value=7)),
    max_size=50))
@settings(max_examples=100)
def test_state_matches_last_operation_property(operations):
    """The word state always reflects the most recent op on that word."""
    tracker = make_tracker()
    last = {}
    for op, row, word in operations:
        if op == "program":
            tracker.program(row, [word])
        else:
            tracker.reset(row, [word])
        last[(row, word)] = op
    for (row, word), op in last.items():
        expected = (CellState.PROGRAMMED if op == "program"
                    else CellState.PRISTINE)
        assert tracker.state(row, word) is expected
