"""The multi-row-buffer file: paired RABs and RDBs (Section II-A).

Each buffer identification number selects a logical pair: the row
address buffer (RAB) holds the upper row address delivered during the
pre-active phase; the row data buffer (RDB) holds the 256-bit row the
activate phase fetched.  The controller consults this state to decide
which addressing phases it can skip.
"""

from __future__ import annotations

import dataclasses
import typing


@dataclasses.dataclass
class RowBufferPair:
    """One RAB/RDB pair."""

    buffer_id: int
    upper_row: int | None = None       # RAB contents
    rab_valid: bool = False
    partition: int | None = None       # RDB tag
    row: int | None = None             # RDB tag
    data: bytes | None = None          # RDB contents
    rdb_valid: bool = False
    last_use: int = 0                            # LRU stamp


class RowBufferSet:
    """All RAB/RDB pairs of one PRAM module, with LRU victim choice."""

    def __init__(self, count: int, row_bytes: int) -> None:
        if count < 1:
            raise ValueError(f"need at least one buffer pair, got {count}")
        self.row_bytes = row_bytes
        self._pairs = [RowBufferPair(buffer_id=i) for i in range(count)]
        self._clock = 0

    def __len__(self) -> int:
        return len(self._pairs)

    def pair(self, buffer_id: int) -> RowBufferPair:
        """The pair selected by a BA signal."""
        if not 0 <= buffer_id < len(self._pairs):
            raise ValueError(
                f"buffer id {buffer_id} out of range [0, {len(self._pairs)})"
            )
        return self._pairs[buffer_id]

    def _touch(self, pair: RowBufferPair) -> None:
        self._clock += 1
        pair.last_use = self._clock

    # ------------------------------------------------------------------
    # Lookup used for phase skipping
    # ------------------------------------------------------------------
    def find_rdb(self, partition: int, row: int,
                 exclude: typing.AbstractSet[int] = frozenset()
                 ) -> RowBufferPair | None:
        """Pair whose RDB holds ``row`` of ``partition``, if any.

        A hit lets the controller skip both pre-active and activate.
        Pairs whose id is in ``exclude`` (in use by an in-flight
        access) are never returned.
        """
        for pair in self._pairs:
            if (pair.rdb_valid and pair.partition == partition
                    and pair.row == row and pair.buffer_id not in exclude):
                self._touch(pair)
                return pair
        return None

    def find_rab(self, upper_row: int,
                 exclude: typing.AbstractSet[int] = frozenset()
                 ) -> RowBufferPair | None:
        """Pair whose RAB already holds ``upper_row``, if any.

        A hit lets the controller skip the pre-active phase.  Pairs
        whose id is in ``exclude`` are never returned.
        """
        for pair in self._pairs:
            if (pair.rab_valid and pair.upper_row == upper_row
                    and pair.buffer_id not in exclude):
                self._touch(pair)
                return pair
        return None

    def probe(self, partition: int, row: int, upper_row: int,
              planned: int, exclude: typing.AbstractSet[int],
              skipping: bool) -> typing.Tuple[int, bool, bool]:
        """A read's buffer probe: ``(buffer id, need pre-active, need
        activate)``.

        With ``skipping`` (phase skipping on), the probe is
        :meth:`find_rdb` then :meth:`find_rab` in one pass over the
        pairs: the first pair whose RDB holds ``row`` of ``partition``
        skips both phases, else the first whose RAB holds
        ``upper_row`` skips the pre-active.  Either hit touches its
        pair as those lookups do.  Otherwise the read takes
        the ``planned`` pair, or, when that one is in ``exclude``, the
        least-recently-used pair not in it (one exists while the
        caller keeps fewer reads in flight than there are pairs),
        untouched.
        """
        pairs = self._pairs
        if skipping:
            rab: RowBufferPair | None = None
            for pair in pairs:
                if pair.buffer_id in exclude:
                    continue
                if (pair.rdb_valid and pair.partition == partition
                        and pair.row == row):
                    self._clock += 1
                    pair.last_use = self._clock
                    return pair.buffer_id, False, False
                if (rab is None and pair.rab_valid
                        and pair.upper_row == upper_row):
                    rab = pair
            if rab is not None:
                self._clock += 1
                rab.last_use = self._clock
                return rab.buffer_id, False, True
        if planned in exclude:
            planned = min((pair for pair in pairs
                           if pair.buffer_id not in exclude),
                          key=lambda pair: pair.last_use).buffer_id
        return planned, True, True

    # ------------------------------------------------------------------
    # Mutation from the module's phase handlers
    # ------------------------------------------------------------------
    def load_rab(self, buffer_id: int, upper_row: int) -> None:
        """Pre-active: store an upper row address into one RAB."""
        pair = self.pair(buffer_id)
        pair.upper_row = upper_row
        pair.rab_valid = True
        # The old RDB contents no longer match the RAB tag.
        pair.rdb_valid = False
        pair.data = None
        pair.partition = None
        pair.row = None
        self._touch(pair)

    def load_rdb(self, buffer_id: int, partition: int, row: int,
                 data: bytes) -> None:
        """Activate: latch a fetched row into the paired RDB."""
        if len(data) != self.row_bytes:
            raise ValueError(
                f"RDB load must be exactly {self.row_bytes} bytes, "
                f"got {len(data)}"
            )
        pair = self.pair(buffer_id)
        pair.partition = partition
        pair.row = row
        pair.data = data
        pair.rdb_valid = True
        self._touch(pair)

    def invalidate_row(self, partition: int, row: int) -> None:
        """Drop any RDB copy of ``row`` (a program made it stale)."""
        for pair in self._pairs:
            if (pair.rdb_valid and pair.partition == partition
                    and pair.row == row):
                pair.rdb_valid = False
                pair.data = None
