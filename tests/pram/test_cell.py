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


class ReferenceTracker:
    """The tracker as one set entry and one dict entry per
    ``(row, word)`` key: the reference the row-bitmask tracker must
    match observably."""

    def __init__(self, words_per_row):
        self.words_per_row = words_per_row
        self._programmed = set()
        self._write_counts = {}
        self.total_set_passes = 0
        self.total_reset_passes = 0

    def state(self, row, word):
        self._check(word)
        if (row, word) in self._programmed:
            return CellState.PROGRAMMED
        return CellState.PRISTINE

    def writes_to(self, row, word):
        self._check(word)
        return self._write_counts.get((row, word), 0)

    def needs_reset(self, row, words):
        return any((row, word) in self._programmed for word in words)

    def program(self, row, words):
        words = self._checked(words)
        reset_needed = self.needs_reset(row, words)
        for word in words:
            key = (row, word)
            self._programmed.add(key)
            self._write_counts[key] = self._write_counts.get(key, 0) + 1
        self.total_set_passes += len(words)
        if reset_needed:
            self.total_reset_passes += len(words)
        return reset_needed

    def set_pass(self, row, words):
        words = self._checked(words)
        for word in words:
            key = (row, word)
            self._programmed.add(key)
            self._write_counts[key] = self._write_counts.get(key, 0) + 1
        self.total_set_passes += len(words)

    def reset(self, row, words):
        words = self._checked(words)
        for word in words:
            key = (row, word)
            self._programmed.discard(key)
            self._write_counts[key] = self._write_counts.get(key, 0) + 1
        self.total_reset_passes += len(words)

    def erase_rows(self, rows):
        rows = set(rows)
        for key in [k for k in self._programmed if k[0] in rows]:
            self._programmed.discard(key)

    @property
    def programmed_words(self):
        return len(self._programmed)

    def max_writes(self):
        return max(self._write_counts.values(), default=0)

    def writes_per_row(self):
        per_row = {}
        for (row, _word), count in self._write_counts.items():
            per_row[row] = per_row.get(row, 0) + count
        return per_row

    def _check(self, word):
        if not 0 <= word < self.words_per_row:
            raise ValueError(
                f"word {word} out of range [0, {self.words_per_row})")

    def _checked(self, words):
        words = list(words)
        for word in words:
            self._check(word)
        return words


WORDS = 8
ROWS = range(4)
#: Word sets probed with needs_reset after every step: whole and
#: partial rows, spans that leave the row, repeats, and strays.
PROBES = [range(WORDS), range(-1, 3), range(5, 12), range(3, 3),
          range(7, -1, -1), range(0, WORDS, 3), [2, 2], [-1], [WORDS],
          *([word] for word in range(WORDS))]

word_lists = st.lists(st.integers(min_value=-2, max_value=WORDS + 1),
                      max_size=6)
word_ranges = st.builds(range, st.integers(min_value=-1, max_value=WORDS),
                        st.integers(min_value=0, max_value=WORDS + 1))
steps = st.one_of(
    st.tuples(st.sampled_from(["program", "set_pass", "reset"]),
              st.sampled_from(ROWS), st.one_of(word_lists, word_ranges)),
    st.tuples(st.just("erase_rows"),
              st.lists(st.sampled_from(ROWS), max_size=3)))


def _observe(tracker):
    return (
        [tracker.state(row, word) for row in ROWS for word in range(WORDS)],
        [tracker.writes_to(row, word)
         for row in ROWS for word in range(WORDS)],
        [tracker.needs_reset(row, words) for row in ROWS
         for words in PROBES],
        tracker.total_set_passes, tracker.total_reset_passes,
        tracker.programmed_words, tracker.max_writes(),
        tracker.writes_per_row())


@given(st.lists(steps, max_size=40))
@settings(max_examples=200, deadline=None)
def test_row_bitmask_tracker_matches_reference(sequence):
    tracker = WordStateTracker(WORDS)
    reference = ReferenceTracker(WORDS)
    for step in sequence:
        outcomes = []
        for subject in (tracker, reference):
            operation = getattr(subject, step[0])
            try:
                outcomes.append(operation(*step[1:]))
            except ValueError as error:
                outcomes.append(str(error))
        assert outcomes[0] == outcomes[1]
        assert _observe(tracker) == _observe(reference)
