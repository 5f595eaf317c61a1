"""Pure latency computations for LPDDR2-NVM operations (Figure 11).

Every function returns nanoseconds.  Keeping timing separate from
device state lets the controller reason about schedules (interleaving
windows, phase-skip savings) without mutating anything.
"""

from __future__ import annotations

import math
import typing

from repro.pram.constants import PramGeometry, PramTimingParams


class TimingModel:
    """Latency calculator bound to one parameter/geometry set.

    The phase latencies depend on the parameter set alone, so
    ``__init__`` evaluates each once and keeps it as a plain attribute
    (``pre_active_ns`` through ``write_recovery_ns``) for the per-chunk
    paths, and :meth:`burst` memoizes its result per size.  Each is the
    expression a per-call evaluation would run, so every float is
    identical to one.
    """

    def __init__(self, params: PramTimingParams = PramTimingParams(),
                 geometry: PramGeometry = PramGeometry()) -> None:
        self.params = params
        self.geometry = geometry
        #: tRP: update a RAB.
        self.pre_active_ns = params.trp_ns
        #: tRCD: compose the row address and sense the row into the RDB.
        self.activate_ns = params.trcd_ns
        #: RL plus strobe output access time (tDQSCK).
        self.read_preamble_ns = params.rl_ns + params.tdqsck_ns
        #: WL plus strobe setup (tDQSS).
        self.write_preamble_ns = params.wl_ns + params.tdqss_ns
        #: tWR: the program buffer drained to the array.
        self.write_recovery_ns = params.twr_ns
        # Burst sizes are bounded by the row and program buffers, so
        # the memo stays small.
        self._bursts: typing.Dict[int, float] = {}

    # ------------------------------------------------------------------
    # Individual phases (Figure 11 timing diagrams)
    # ------------------------------------------------------------------
    def pre_active(self) -> float:
        """Pre-active phase: update a RAB within tRP."""
        return self.pre_active_ns

    def activate(self) -> float:
        """Activate phase: compose the row address, fetch into the RDB.

        tRCD covers address composition, the overlay-window range check,
        and sensing the row out of the array (Section V-A).
        """
        return self.activate_ns

    def read_preamble(self) -> float:
        """Read preamble: RL plus strobe output access time (tDQSCK)."""
        return self.read_preamble_ns

    def write_preamble(self) -> float:
        """Write preamble: WL plus strobe setup (tDQSS)."""
        return self.write_preamble_ns

    def burst(self, size_bytes: int) -> float:
        """Data burst time for ``size_bytes`` over the 16-bit DQ bus.

        One burst of the configured length moves ``2 * burst_length``
        bytes (DDR, 16-bit dq); larger transfers chain bursts.
        """
        value = self._bursts.get(size_bytes)
        if value is None:
            if size_bytes <= 0:
                raise ValueError(
                    f"burst size must be positive, got {size_bytes}")
            bytes_per_burst = 2 * self.params.burst_length
            bursts = math.ceil(size_bytes / bytes_per_burst)
            value = self._bursts[size_bytes] = bursts * self.params.tburst_ns
        return value

    def write_recovery(self) -> float:
        """tWR: guarantee the program buffer drained to the array."""
        return self.write_recovery_ns

    # ------------------------------------------------------------------
    # Array (storage-core) operations
    # ------------------------------------------------------------------
    def array_program(self, needs_reset: bool) -> float:
        """Cell program time: SET-only if pristine, RESET+SET otherwise."""
        if needs_reset:
            return self.params.write_overwrite_ns
        return self.params.write_pristine_ns

    def array_reset_only(self) -> float:
        """All-zero program (the selective-erasing primitive)."""
        return self.params.reset_only_ns

    def array_erase(self) -> float:
        """Bulk erase of a partition range (~60 ms)."""
        return self.params.erase_ns

    # ------------------------------------------------------------------
    # Composite request latencies, used by schedulers for planning
    # ------------------------------------------------------------------
    def read_row(self, size_bytes: int, skip_pre_active: bool = False,
                 skip_activate: bool = False) -> float:
        """Full read of ``size_bytes`` from one row, with phase skips."""
        total = 0.0
        if not skip_pre_active:
            total += self.pre_active()
        if not skip_activate:
            total += self.activate()
        return total + self.read_preamble() + self.burst(size_bytes)

    def write_row(self, size_bytes: int, needs_reset: bool,
                  skip_pre_active: bool = False) -> float:
        """Full write of ``size_bytes`` through the program buffer.

        Register pokes + payload burst + launch + array program + tWR.
        The activate phase for a write resolves into the overlay window,
        so only the pre-active can be skipped.
        """
        total = 0.0
        if not skip_pre_active:
            total += self.pre_active()
        total += self.activate()
        total += self.write_preamble() + self.burst(size_bytes)
        total += self.array_program(needs_reset)
        return total + self.write_recovery()

    def transfer_only(self, size_bytes: int) -> float:
        """Time on the DQ bus alone — what interleaving tries to hide
        the next request's array access behind."""
        return self.read_preamble() + self.burst(size_bytes)
