"""Word-granularity cell-state tracking.

The write-latency asymmetry at the heart of selective erasing comes
from the physics in Figure 2: a program is RESET (short pulse, melt to
amorphous "0") followed by SET (long pulse, crystallize to "1").  A
word whose cells are all in the pristine RESET state only needs the SET
pass, which is what makes pre-RESETting profitable.

State is tracked per *word* (the program unit) and stored sparsely per
*row* — the modelled device is 32 GiB and workloads touch a sliver of
it.
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

    Words are addressed as ``(row, word_index)`` within one partition;
    the partition model owns one tracker each.  Untouched words are
    pristine (the factory state).

    Each row a pulse ever reached keeps one bitmask of its programmed
    words and one list of per-word pulse counts, so a program over a
    row's words is one mask test and one pass over the words.
    """

    def __init__(self, words_per_row: int) -> None:
        if words_per_row < 1:
            raise ValueError(f"words_per_row must be >= 1, got {words_per_row}")
        self.words_per_row = words_per_row
        # row -> bit ``w`` set while word ``w`` holds data.
        self._programmed: typing.Dict[int, int] = {}
        # row -> pulses absorbed per word; present once any word of the
        # row absorbed one.
        self._pulses: typing.Dict[int, typing.List[int]] = {}
        self.total_set_passes = 0
        self.total_reset_passes = 0

    def state(self, row: int, word: int) -> CellState:
        """Current state of one word."""
        self._check(word)
        if self._programmed.get(row, 0) >> word & 1:
            return CellState.PROGRAMMED
        return CellState.PRISTINE

    def writes_to(self, row: int, word: int) -> int:
        """How many program passes this word has absorbed (endurance)."""
        self._check(word)
        pulses = self._pulses.get(row)
        return pulses[word] if pulses is not None else 0

    def needs_reset(self, row: int, words: typing.Iterable[int]) -> bool:
        """True if any of ``words`` in ``row`` is programmed.

        A program covering such a word must run the RESET pass first,
        i.e. it pays the full overwrite latency.  Words outside the row
        are never programmed, so they never force a RESET.
        """
        programmed = self._programmed.get(row, 0)
        return programmed != 0 and programmed & self._mask(words) != 0

    def program(self, row: int, words: typing.Iterable[int]) -> bool:
        """Program ``words``; returns True if a RESET pass was needed."""
        count, mask = self._pulse(row, words)
        programmed = self._programmed.get(row, 0)
        self._programmed[row] = programmed | mask
        self.total_set_passes += count
        if programmed & mask:
            self.total_reset_passes += count
            return True
        return False

    def set_pass(self, row: int, words: typing.Iterable[int]) -> None:
        """SET-only pulse over already-RESET cells (program retry).

        The program-and-verify retry path re-issues just the failed
        words' SET pass (mirroring selective erasing's asymmetry), so
        it consumes endurance and marks the words programmed without
        a RESET pass.
        """
        count, mask = self._pulse(row, words)
        self._programmed[row] = self._programmed.get(row, 0) | mask
        self.total_set_passes += count

    def reset(self, row: int, words: typing.Iterable[int]) -> None:
        """RESET ``words`` back to pristine (selective erasing primitive).

        Counts against endurance like any other pulse.
        """
        count, mask = self._pulse(row, words)
        self._programmed[row] = self._programmed.get(row, 0) & ~mask
        self.total_reset_passes += count

    def erase_rows(self, rows: typing.Iterable[int]) -> None:
        """Bulk erase: every word in ``rows`` returns to pristine."""
        for row in rows:
            self._programmed.pop(row, None)

    @property
    def programmed_words(self) -> int:
        """Number of words currently holding data."""
        return sum(bin(mask).count("1")
                   for mask in self._programmed.values())

    def max_writes(self) -> int:
        """Worst-case endurance consumption across all words."""
        return max((max(pulses) for pulses in self._pulses.values()),
                   default=0)

    def writes_per_row(self) -> typing.Dict[int, int]:
        """Total pulses each row's words absorbed, for every row that
        absorbed any, in the order the rows were first pulsed."""
        return {row: sum(pulses) for row, pulses in self._pulses.items()}

    def _mask(self, words: typing.Iterable[int]) -> int:
        """Bitmask of the in-row words among ``words``.

        A step-1 ``range`` (what the module's planner passes) is one
        shift; anything else is one pass.
        """
        limit = self.words_per_row
        if isinstance(words, range) and words.step == 1:
            start = max(words.start, 0)
            stop = min(words.stop, limit)
            return ((1 << (stop - start)) - 1) << start if stop > start else 0
        mask = 0
        for word in words:
            if 0 <= word < limit:
                mask |= 1 << word
        return mask

    def _pulse(self, row: int, words: typing.Iterable[int]
               ) -> typing.Tuple[int, int]:
        """Count one pulse on each of ``words``: ``(words, their mask)``.

        The words are range-checked as a batch first, so the first
        out-of-range word raises before any state changes.  A step-1
        ``range`` (what the module passes) is checked by its ends and
        masked by one shift; any other iterable by one min/max pass and
        one bit per word.
        """
        limit = self.words_per_row
        if type(words) is range and words.step == 1:
            start = words.start
            stop = words.stop
            if stop <= start:
                return 0, 0
            if start < 0 or stop > limit:
                for word in words:
                    self._check(word)
            count = stop - start
            pulses = self._pulses.get(row)
            if pulses is None:
                # The row's first pulse: its counts are this pulse (a
                # preloaded row's covers the whole row).
                self._pulses[row] = (
                    [1] * limit if count == limit
                    else [0] * start + [1] * count + [0] * (limit - stop))
            else:
                for word in words:
                    pulses[word] += 1
            return count, ((1 << count) - 1) << start
        batch = words if isinstance(words, range) else list(words)
        if not batch:
            return 0, 0
        if min(batch) < 0 or max(batch) >= limit:
            for word in batch:
                self._check(word)
        pulses = self._pulses.get(row)
        if pulses is None:
            pulses = self._pulses[row] = [0] * limit
        mask = 0
        for word in batch:
            pulses[word] += 1
            mask |= 1 << word
        return len(batch), mask

    def _check(self, word: int) -> None:
        if not 0 <= word < self.words_per_row:
            raise ValueError(
                f"word {word} out of range [0, {self.words_per_row})"
            )
