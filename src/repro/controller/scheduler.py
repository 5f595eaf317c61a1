"""Scheduling policies for the PRAM subsystem (Section V-A, Figure 13).

Four policies are evaluated in the paper:

* **BARE_METAL** — the noop scheduler: requests are serviced strictly
  one at a time per channel, with no overlap between array access and
  data transfer;
* **INTERLEAVING** — multi-resource aware interleaving: the data burst
  of a request whose RDB is ready proceeds while another request's
  partition is still sensing (tRCD) or programming;
* **SELECTIVE_ERASE** — bare-metal ordering plus pre-RESET of addresses
  about to be overwritten, so the critical-path program is SET-only;
* **FINAL** — interleaving + selective erasing (the DRAM-less default).
"""

from __future__ import annotations

import collections
import enum
import typing

from repro.telemetry.metrics import current_metrics


class SchedulerPolicy(enum.Enum):
    """The four configurations of Figure 13."""

    BARE_METAL = "bare-metal"
    INTERLEAVING = "interleaving"
    SELECTIVE_ERASE = "selective-erasing"
    FINAL = "final"

    @property
    def interleaves(self) -> bool:
        """Does this policy overlap array access with data transfer?"""
        return self in (SchedulerPolicy.INTERLEAVING, SchedulerPolicy.FINAL)

    @property
    def pre_resets(self) -> bool:
        """Does this policy selectively erase soon-to-be-written rows?"""
        return self in (SchedulerPolicy.SELECTIVE_ERASE, SchedulerPolicy.FINAL)


class WriteHintStore:
    """Regions the server announced it will overwrite soon.

    Section V-A: "while the server loads the target kernel, the PRAM
    subsystem can selectively program the all-zero data word for only
    the addresses that will be overwritten soon".  The server registers
    hints when it parses the kernel's output regions; the channel
    controllers consume them in the background.

    One store serves one channel and holds whole regions, each with the
    number of its row chunks on that channel.  Every count it keeps —
    ``registered``, ``consumed``, ``peak_depth``, ``len()`` and
    :meth:`depth` — is in those rows.
    """

    def __init__(self) -> None:
        self._pending: typing.Deque[
            typing.Tuple[int, int, float, int]] = collections.deque()
        self._depth = 0
        self.registered = 0
        self.consumed = 0
        self.peak_depth = 0
        # Shared across stores: one pair of scheduler-wide counters in
        # the ambient registry, bumped once per row while one is
        # attached.
        self._metrics = current_metrics()
        metrics = self._metrics
        if metrics.enabled:
            self._m_registered = metrics.counter("sched.hints.registered")
            self._m_consumed = metrics.counter("sched.hints.consumed")
        else:
            self._m_registered = None
            self._m_consumed = None

    def add(self, address: int, size: int,
            registered_at: float = float("inf"), rows: int = 1) -> None:
        """Register a region expected to be overwritten.

        ``rows`` is how many of the region's row chunks fall on this
        store's channel.  ``registered_at`` is the simulated time of
        registration: a consumer must skip rows that were programmed
        *after* this instant, or a background pre-reset would destroy
        fresh data.  The default (+inf) places no freshness constraint
        — callers that care (the subsystem does) pass the actual time.
        """
        if size < 1:
            raise ValueError(f"hint size must be >= 1, got {size}")
        if address < 0:
            raise ValueError(f"negative hint address: {address}")
        self._pending.append((address, size, registered_at, rows))
        self._depth += rows
        self.registered += rows
        if self._depth > self.peak_depth:
            self.peak_depth = self._depth
        if self._m_registered is not None:
            for _ in range(rows):
                self._m_registered.add()
            # Scheduler-wide high-water mark: how deep the backlog of
            # announced-but-not-yet-reset rows ever grew.
            self._metrics.gauge_max("sched.hints.depth_peak",
                                    float(self.peak_depth))

    def pop(self) -> typing.Tuple[int, int, float] | None:
        """Take the oldest unprocessed region as ``(address, size,
        registered_at)`` (None when drained)."""
        if not self._pending:
            return None
        address, size, registered_at, rows = self._pending.popleft()
        self._depth -= rows
        self.consumed += rows
        if self._m_consumed is not None:
            for _ in range(rows):
                self._m_consumed.add()
        return address, size, registered_at

    def __len__(self) -> int:
        return self._depth

    def depth(self) -> float:
        """Current backlog in rows, as a float for gauge/window sampling."""
        return float(self._depth)
