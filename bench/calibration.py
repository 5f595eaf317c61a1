"""Host-speed yardstick: a fixed kernel timed around every measurement.

The CPU speed of a small shared host drifts.  On a shared 2-CPU Intel
Xeon (2.1 GHz), two runs of :func:`kernel` 0.3 s apart differ by
±15%, and slow phases (about 1.5x) last up to a minute, longer than a
whole benchmark run, so the minimum of a few repetitions does not
remove them: ten runs of the same workload spread by 6–47% between
quartiles.  Dividing each measurement by the time of this
kernel, run right before and right after it, cancels most of the
drift.  The kernel does the same kind of work as the simulator
(heap pushes and pops, small objects, dict updates, generator
resumes) so that the two slow down alike, and imports nothing from
``repro``, so a change to the simulator never moves the yardstick.
"""

from __future__ import annotations

import heapq
import time
import typing

#: Seconds :func:`kernel` takes on the reference host (2-CPU Intel
#: Xeon at 2.1 GHz, Python 3.11) outside slow phases.  Normalized
#: times read as seconds on that host.
REFERENCE_S = 0.016


class _Entry:
    __slots__ = ("key", "value")

    def __init__(self, key: int, value: int) -> None:
        self.key = key
        self.value = value


def _countdown(count: int) -> typing.Iterator[int]:
    while count:
        count -= 1
        yield count


def kernel(size: int = 12_000) -> int:
    """The fixed work the host's speed is measured by."""
    heap: typing.List[typing.Tuple[int, int, _Entry]] = []
    counts: typing.Dict[int, int] = {}
    for index in range(size):
        entry = _Entry(index * 7919 % 1000, index)
        heapq.heappush(heap, (entry.key, index, entry))
        counts[index & 1023] = counts.get(index & 1023, 0) + entry.value
    total = sum(_countdown(size // 2))
    while heap:
        total += heapq.heappop(heap)[2].key
    return total


def measure() -> float:
    """Host seconds one run of :func:`kernel` takes now."""
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start


def normalize(seconds: float, before: float, after: float) -> float:
    """``seconds`` measured between two kernel runs, in reference seconds."""
    return seconds * REFERENCE_S * 2.0 / (before + after)
