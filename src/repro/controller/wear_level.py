"""Start-gap wear leveling (Section VII, via Qureshi et al. MICRO'09).

The paper notes DRAM-less "can integrate traditional wear levellers in
our PRAM controller, such as start-gap, to improve the PRAM lifetime".
This module implements the classic algorithm as an optional layer under
the channel controllers.

Start-gap keeps one spare *gap* line per region (here: one per
partition) and two registers:

* ``gap`` — the physical index of the currently-unused line;
* ``start`` — the rotation of the logical-to-physical mapping.

The mapping for logical line ``l`` of ``n`` logical lines is::

    p = (l + start) mod n
    if p >= gap: p += 1          # skip the gap line

Every ``gap_write_interval`` writes the gap moves one line down (the
content of physical line ``gap - 1`` is copied into ``gap`` and the
registers update), so hot logical lines slowly migrate across all
physical lines.  A full rotation takes ``n * interval`` writes, after
which every physical line has absorbed an equal share.

The module also holds the other row remap the channel controllers
compose with start-gap: bad-row retirement onto spare rows, which
fault resilience (:mod:`repro.faults`) turns on.
"""

from __future__ import annotations

import dataclasses
import typing

#: Default gap-move period ψ: one move per 100 writes (the classic
#: operating point; <1% overhead, near-perfect leveling long-term).
DEFAULT_GAP_WRITE_INTERVAL = 100


@dataclasses.dataclass
class GapMove:
    """One pending gap movement: copy ``source`` into ``destination``."""

    source: int       # physical row whose content must move
    destination: int  # physical row that receives it (the old gap)


class StartGapMapper:
    """Start-gap remapping for one region of ``lines`` logical rows.

    The physical space has ``lines + 1`` rows (one spare).  The mapper
    is pure bookkeeping: callers translate rows through :meth:`map`,
    call :meth:`record_write` per row program, and perform the returned
    :class:`GapMove` (a read+program of one row) when one is due.
    """

    def __init__(self, lines: int,
                 gap_write_interval: int = DEFAULT_GAP_WRITE_INTERVAL
                 ) -> None:
        if lines < 1:
            raise ValueError(f"need at least one line, got {lines}")
        if gap_write_interval < 1:
            raise ValueError(
                f"gap interval must be >= 1, got {gap_write_interval}"
            )
        self.lines = lines
        self.gap_write_interval = gap_write_interval
        self.start = 0
        self.gap = lines          # spare line starts at the end
        self.writes_since_move = 0
        self.total_moves = 0

    @property
    def physical_lines(self) -> int:
        """Physical rows this region occupies (logical + 1 spare)."""
        return self.lines + 1

    def map(self, logical: int) -> int:
        """Translate a logical row to its current physical row."""
        if not 0 <= logical < self.lines:
            raise ValueError(
                f"logical row {logical} out of range [0, {self.lines})"
            )
        physical = (logical + self.start) % self.lines
        if physical >= self.gap:
            physical += 1
        return physical

    def record_write(self) -> GapMove | None:
        """Account one row program; returns a due :class:`GapMove`.

        The caller must complete the returned copy *before* issuing
        further writes through this mapper (the registers update
        immediately, so the mapping already reflects the move).
        """
        self.writes_since_move += 1
        if self.writes_since_move < self.gap_write_interval:
            return None
        self.writes_since_move = 0
        self.total_moves += 1
        if self.gap == 0:
            # Wrap: the gap returns to the top and the rotation
            # advances.  Exactly one line relocates: in the old layout
            # (gap=0, start=s) the logical line with
            # (l+s) mod n == n-1 sits at physical n; in the new layout
            # (gap=n, start=s+1) it sits at physical 0.  Every other
            # line's physical position is unchanged by the register
            # update.
            move = GapMove(source=self.lines, destination=0)
            self.gap = self.lines
            self.start = (self.start + 1) % self.lines
            return move
        move = GapMove(source=self.gap - 1, destination=self.gap)
        self.gap -= 1
        return move

    def endurance_spread(self, write_counts: typing.Sequence[int]) -> float:
        """Max/mean ratio of per-line write counts (1.0 = perfect)."""
        counts = [c for c in write_counts if c > 0]
        if not counts:
            return 1.0
        mean = sum(counts) / len(counts)
        return max(counts) / mean if mean else 1.0


class RetirementMap:
    """Bad-row retirement: remaps worn-out rows onto reserved spares.

    The top ``spare_rows`` physical rows of every partition are carved
    out as replacements (the wear-leveling gap region shrinks to
    match).  When program-and-verify retries exhaust on a row the
    channel controller retires it: data moves to the next free spare
    and all later accesses follow the remap.  Spares can themselves be
    retired (chains are followed), and when a partition runs out the
    controller degrades the request instead of raising.
    """

    def __init__(self, rows_per_partition: int, spare_rows: int) -> None:
        if spare_rows < 0:
            raise ValueError(f"spare_rows must be >= 0, got {spare_rows}")
        if spare_rows >= rows_per_partition:
            raise ValueError(
                f"spare_rows {spare_rows} must leave data rows in the "
                f"{rows_per_partition}-row partition"
            )
        self.rows_per_partition = rows_per_partition
        self.spare_rows = spare_rows
        self.first_spare = rows_per_partition - spare_rows
        self._remap: typing.Dict[typing.Tuple[int, int, int], int] = {}
        self._next_spare: typing.Dict[typing.Tuple[int, int], int] = {}
        self.retired = 0

    def translate(self, module: int, partition: int, row: int) -> int:
        """Follow the remap chain from ``row`` to its live location."""
        if not self._remap:
            return row
        seen = 0
        while (target := self._remap.get((module, partition, row))) is not None:
            row = target
            seen += 1
            if seen > self.spare_rows:  # pragma: no cover - invariant
                raise RuntimeError("retirement remap chain cycles")
        return row

    def retire(self, module: int, partition: int,
               row: int) -> int | None:
        """Retire ``row``; returns the spare it now maps to, or None.

        None means the partition's spares are exhausted — the caller
        must degrade the request rather than remap.
        """
        key = (module, partition)
        cursor = self.first_spare + self._next_spare.get(key, 0)
        if cursor >= self.rows_per_partition:
            return None
        self._next_spare[key] = self._next_spare.get(key, 0) + 1
        self._remap[(module, partition, row)] = cursor
        self.retired += 1
        return cursor
