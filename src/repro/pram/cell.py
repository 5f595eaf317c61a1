"""Word-granularity cell-state tracking.

The write-latency asymmetry at the heart of selective erasing comes
from the physics in Figure 2: a program is RESET (short pulse, melt to
amorphous "0") followed by SET (long pulse, crystallize to "1").  A
word whose cells are all in the pristine RESET state only needs the SET
pass, which is what makes pre-RESETting profitable.

State is tracked per *word* (the program unit) and stored sparsely —
the modelled device is 32 GiB and workloads touch a sliver of it.
"""

from __future__ import annotations

import enum
import typing


class CellState(enum.Enum):
    """Aggregate state of one program-unit word."""

    PRISTINE = "pristine"      # all cells RESET; SET-only program suffices
    PROGRAMMED = "programmed"  # holds data; overwrite needs RESET + SET


class WordStateTracker:
    """Tracks :class:`CellState` and write endurance per word.

    Keys are ``(row, word_index)`` within one partition; the partition
    model owns one tracker each.  Untouched words are pristine (the
    factory state).
    """

    def __init__(self, words_per_row: int) -> None:
        if words_per_row < 1:
            raise ValueError(f"words_per_row must be >= 1, got {words_per_row}")
        self.words_per_row = words_per_row
        self._programmed: typing.Set[typing.Tuple[int, int]] = set()
        self._write_counts: typing.Dict[typing.Tuple[int, int], int] = {}
        self.total_set_passes = 0
        self.total_reset_passes = 0

    def state(self, row: int, word: int) -> CellState:
        """Current state of one word."""
        self._check(word)
        if (row, word) in self._programmed:
            return CellState.PROGRAMMED
        return CellState.PRISTINE

    def writes_to(self, row: int, word: int) -> int:
        """How many program passes this word has absorbed (endurance)."""
        self._check(word)
        return self._write_counts.get((row, word), 0)

    def needs_reset(self, row: int, words: typing.Iterable[int]) -> bool:
        """True if any of ``words`` in ``row`` is programmed.

        A program covering such a word must run the RESET pass first,
        i.e. it pays the full overwrite latency.
        """
        return any((row, word) in self._programmed for word in words)

    def program(self, row: int, words: typing.Iterable[int]) -> bool:
        """Program ``words``; returns True if a RESET pass was needed."""
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

    def set_pass(self, row: int, words: typing.Iterable[int]) -> None:
        """SET-only pulse over already-RESET cells (program retry).

        The program-and-verify retry path re-issues just the failed
        words' SET pass (mirroring selective erasing's asymmetry), so
        it consumes endurance and marks the words programmed without
        a RESET pass.
        """
        words = self._checked(words)
        for word in words:
            key = (row, word)
            self._programmed.add(key)
            self._write_counts[key] = self._write_counts.get(key, 0) + 1
        self.total_set_passes += len(words)

    def reset(self, row: int, words: typing.Iterable[int]) -> None:
        """RESET ``words`` back to pristine (selective erasing primitive).

        Counts against endurance like any other pulse.
        """
        words = self._checked(words)
        for word in words:
            key = (row, word)
            self._programmed.discard(key)
            self._write_counts[key] = self._write_counts.get(key, 0) + 1
        self.total_reset_passes += len(words)

    def erase_rows(self, rows: typing.Iterable[int]) -> None:
        """Bulk erase: every word in ``rows`` returns to pristine."""
        rows = set(rows)
        for key in [k for k in self._programmed if k[0] in rows]:
            self._programmed.discard(key)

    @property
    def programmed_words(self) -> int:
        """Number of words currently holding data."""
        return len(self._programmed)

    def max_writes(self) -> int:
        """Worst-case endurance consumption across all words."""
        return max(self._write_counts.values(), default=0)

    def _check(self, word: int) -> None:
        if not 0 <= word < self.words_per_row:
            raise ValueError(
                f"word {word} out of range [0, {self.words_per_row})"
            )

    def _checked(self, words: typing.Iterable[int]) -> typing.List[int]:
        """``words`` as a list, range-checked as a batch.

        Raises on the first out-of-range word before the caller changes
        any state; one min/max pass replaces a method call per word.
        """
        words = list(words)
        if words and (min(words) < 0
                      or max(words) >= self.words_per_row):
            for word in words:
                self._check(word)
        return words
