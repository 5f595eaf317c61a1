"""Statistics containers shared by every experiment.

The paper's figures need five shapes of data:

* scalar totals (bandwidth, total energy) — :class:`Counter`;
* per-category decompositions (Figures 16/17) — :class:`Breakdown`;
* step functions of simulated time (Figures 18-21) — :class:`TimeSeries`,
  whose time-weighted mean and per-level residency also give the
  sampler's window means and the accelerator's per-state residency;
* latency distributions for the scheduler studies — :class:`Histogram`;
* mergeable tail-latency sketches for sharded runs — :class:`LatencySketch`.

Percentile definition (shared by :class:`Histogram` and
:class:`LatencySketch`): **nearest-rank**.  For quantile ``q`` in
``[0, 1]`` over ``N`` samples the rank is ``max(1, ceil(q * N))`` and
the percentile is the rank-th smallest sample.  ``q = 0`` therefore
returns the minimum, ``q = 1`` the maximum, a single-sample population
returns that sample for every ``q``, and an empty population raises
``ValueError`` — there is no sample to name.
"""

from __future__ import annotations

import bisect
import dataclasses
import functools
import math
import typing

#: The quantiles every latency report extracts (p50/p95/p99/p999).
QUANTILE_TARGETS: typing.Tuple[typing.Tuple[str, float], ...] = (
    ("p50", 0.50), ("p95", 0.95), ("p99", 0.99), ("p999", 0.999))


class Counter:
    """A named accumulating scalar."""

    def __init__(self, name: str = "counter") -> None:
        self.name = name
        self.value = 0.0
        self.events = 0

    def add(self, amount: float = 1.0) -> None:
        """Accumulate ``amount`` and bump the event count."""
        self.value += amount
        self.events += 1

    def merge(self, other: "Counter") -> None:
        """Fold another counter's total and event count into this one."""
        self.value += other.value
        self.events += other.events

    @property
    def mean(self) -> float:
        """Average amount per recorded event (0 when empty)."""
        return self.value / self.events if self.events else 0.0

    def __repr__(self) -> str:
        return f"<Counter {self.name}={self.value} over {self.events} events>"


class Breakdown:
    """Totals split across named categories (time or energy decomposition)."""

    def __init__(self, name: str = "breakdown") -> None:
        self.name = name
        self._parts: typing.Dict[str, float] = {}

    def add(self, category: str, amount: float) -> None:
        """Add ``amount`` to ``category`` (created on first use)."""
        self._parts[category] = self._parts.get(category, 0.0) + amount

    def add_each(self, category: str,
                 amounts: typing.Sequence[float]) -> None:
        """Add each of ``amounts`` to ``category`` in turn: the float
        one :meth:`add` per amount leaves.  No amounts, no category."""
        if not amounts:
            return
        total = self._parts.get(category, 0.0)
        for amount in amounts:
            total += amount
        self._parts[category] = total

    def get(self, category: str) -> float:
        """Total recorded for ``category`` (0 when absent)."""
        return self._parts.get(category, 0.0)

    @property
    def total(self) -> float:
        """Sum across all categories."""
        return sum(self._parts.values())

    @property
    def categories(self) -> typing.Tuple[str, ...]:
        """Categories in insertion order."""
        return tuple(self._parts)

    def fractions(self) -> typing.Dict[str, float]:
        """Category shares normalized to the total (empty dict if zero)."""
        total = self.total
        if total <= 0:
            return {}
        return {key: value / total for key, value in self._parts.items()}

    def as_dict(self) -> typing.Dict[str, float]:
        """Copy of the raw category totals."""
        return dict(self._parts)

    def merge(self, other: "Breakdown") -> None:
        """Fold another breakdown's categories into this one."""
        for category, amount in other._parts.items():
            self.add(category, amount)

    def scaled(self, factor: float) -> "Breakdown":
        """New breakdown with every category multiplied by ``factor``."""
        result = Breakdown(self.name)
        for category, amount in self._parts.items():
            result.add(category, amount * factor)
        return result

    def __repr__(self) -> str:
        parts = ", ".join(f"{k}={v:.3g}" for k, v in self._parts.items())
        return f"<Breakdown {self.name}: {parts}>"


class TimeSeries:
    """(time, value) samples read as a step function of simulated time.

    Record a sample whenever the quantity changes.
    :meth:`time_weighted_mean` is its mean over an interval (the
    sampler's window means, the mean aggregate IPC), :meth:`residency`
    the time it spends at each level (per-state PE residency), and
    :meth:`resample` buckets it at the paper's plotting granularity.
    """

    def __init__(self, name: str = "series") -> None:
        self.name = name
        self.times: typing.List[float] = []
        self.values: typing.List[float] = []

    def __len__(self) -> int:
        return len(self.times)

    def record(self, time: float, value: float) -> None:
        """Append a sample; times must be non-decreasing."""
        if self.times and time < self.times[-1]:
            raise ValueError(
                f"time went backwards: {time} < {self.times[-1]}"
            )
        self.times.append(time)
        self.values.append(value)

    def merge(self, other: "TimeSeries") -> None:
        """Append another series' samples (a later cell's, in order)."""
        self.times.extend(other.times)
        self.values.extend(other.values)

    def value_at(self, time: float) -> float:
        """Step-function lookup: last recorded value at or before ``time``."""
        index = bisect.bisect_right(self.times, time) - 1
        if index < 0:
            return 0.0
        return self.values[index]

    def _steps(self, start: float, end: float
               ) -> typing.Iterator[typing.Tuple[float, float]]:
        """The step function over [start, end) as (level, length) pieces.

        Pieces come in time order, one per sample inside the interval
        plus the stretch from the last one to ``end``.  Samples at one
        instant give zero-length pieces, and a sample at exactly
        ``end`` belongs to the next interval.
        """
        times = self.times
        index = bisect.bisect_right(times, start)
        level = self.values[index - 1] if index else 0.0
        cursor = start
        while index < len(times) and times[index] < end:
            yield level, times[index] - cursor
            cursor = times[index]
            level = self.values[index]
            index += 1
        yield level, end - cursor

    def time_weighted_mean(self, start: float, end: float) -> float:
        """Mean of the step function over [start, end)."""
        if end <= start:
            raise ValueError(f"empty interval [{start}, {end})")
        area = 0.0
        for level, length in self._steps(start, end):
            area += level * length
        return area / (end - start)

    def residency(self, start: float, end: float) -> typing.Dict[float, float]:
        """Time spent at each level over [start, end) (empty if none).

        Levels appear in the order the step function first holds them.
        """
        spent: typing.Dict[float, float] = {}
        if end <= start:
            return spent
        for level, length in self._steps(start, end):
            spent[level] = spent.get(level, 0.0) + length
        return spent

    def resample(self, start: float, end: float,
                 buckets: int) -> typing.List[typing.Tuple[float, float]]:
        """Bucketed (midpoint time, mean value) pairs over [start, end)."""
        if buckets < 1:
            raise ValueError(f"need at least one bucket, got {buckets}")
        width = (end - start) / buckets
        samples = []
        for i in range(buckets):
            lo = start + i * width
            hi = lo + width
            samples.append((lo + width / 2, self.time_weighted_mean(lo, hi)))
        return samples


class Histogram:
    """Latency histogram with streaming mean/percentile support."""

    def __init__(self, name: str = "histogram") -> None:
        self.name = name
        self.samples: typing.List[float] = []
        self._sorted = True

    def add(self, value: float) -> None:
        """Record one sample."""
        if not self.samples:
            # First sample: there is no predecessor to compare with, and
            # one sample is sorted.
            self._sorted = True
        elif value < self.samples[-1]:
            self._sorted = False
        self.samples.append(value)

    def merge(self, other: "Histogram") -> None:
        """Pool another histogram's samples into this one."""
        for sample in other.samples:
            self.add(sample)

    def __len__(self) -> int:
        return len(self.samples)

    def _ensure_sorted(self) -> None:
        if not self._sorted:
            self.samples.sort()
            self._sorted = True

    @property
    def mean(self) -> float:
        """Arithmetic mean (0 when empty)."""
        if not self.samples:
            return 0.0
        return sum(self.samples) / len(self.samples)

    @property
    def minimum(self) -> float:
        """Smallest sample (nan when empty)."""
        return min(self.samples) if self.samples else math.nan

    @property
    def maximum(self) -> float:
        """Largest sample (nan when empty)."""
        return max(self.samples) if self.samples else math.nan

    def percentile(self, fraction: float) -> float:
        """Exact nearest-rank percentile, ``fraction`` in [0, 1].

        Semantics (the module-level contract shared with
        :class:`LatencySketch`): the result is the ``max(1, ceil(q *
        N))``-th smallest of the ``N`` recorded samples.  ``q = 0``
        returns the minimum, ``q = 1`` the maximum, and a single-sample
        histogram returns that sample for every ``q``.  Raises
        ``ValueError`` for an empty histogram — nearest-rank names an
        actual sample, and an empty population has none.
        """
        if not 0.0 <= fraction <= 1.0:
            raise ValueError(f"fraction must be in [0, 1], got {fraction}")
        if not self.samples:
            raise ValueError("percentile of an empty histogram")
        self._ensure_sorted()
        rank = max(1, math.ceil(fraction * len(self.samples)))
        return self.samples[rank - 1]

    def quantiles(self) -> typing.Dict[str, float]:
        """The standard tail quantiles (:data:`QUANTILE_TARGETS`).

        Returns ``{"p50": ..., "p95": ..., "p99": ..., "p999": ...}``
        under the exact nearest-rank definition, or ``{}`` when empty.
        """
        if not self.samples:
            return {}
        return {name: self.percentile(q) for name, q in QUANTILE_TARGETS}


# ----------------------------------------------------------------------
# Mergeable latency sketch
# ----------------------------------------------------------------------
@dataclasses.dataclass(frozen=True)
class SketchLayout:
    """The fixed log-linear bucket grid of a :class:`LatencySketch`.

    HDR-histogram style: values in ``[2**min_exp, 2**max_exp)`` are
    split into octaves, each octave into ``subbuckets`` linear
    sub-buckets, so relative bucket width — and therefore the worst-case
    relative quantile error — is ``1 / subbuckets`` everywhere on the
    grid.  The layout is part of the sketch's identity: two sketches
    merge only if their layouts are equal, and the spec string is
    stamped into BENCH provenance so compares never diff mismatched
    grids.
    """

    min_exp: int = 0
    max_exp: int = 40
    subbuckets: int = 16

    def __post_init__(self) -> None:
        if self.max_exp <= self.min_exp:
            raise ValueError(
                f"empty sketch range [2**{self.min_exp}, 2**{self.max_exp})")
        if self.subbuckets < 1:
            raise ValueError(
                f"need at least one sub-bucket, got {self.subbuckets}")

    @functools.cached_property
    def min_value(self) -> float:
        """Smallest value the grid resolves (lower values clamp)."""
        return float(2 ** self.min_exp)

    @functools.cached_property
    def max_value(self) -> float:
        """First value past the grid (higher values clamp)."""
        return float(2 ** self.max_exp)

    @functools.cached_property
    def bucket_count(self) -> int:
        """Total buckets on the grid."""
        return (self.max_exp - self.min_exp) * self.subbuckets

    def spec(self) -> str:
        """Canonical layout identity, e.g. ``log2[0,40)x16``."""
        return f"log2[{self.min_exp},{self.max_exp})x{self.subbuckets}"

    def index(self, value: float) -> int:
        """Bucket index for an in-range ``value`` (no clamping here)."""
        mantissa, exponent = math.frexp(value)  # value = m * 2**e, m in [.5,1)
        return ((exponent - 1 - self.min_exp) * self.subbuckets
                + int((mantissa - 0.5) * 2.0 * self.subbuckets))

    def bounds(self, index: int) -> typing.Tuple[float, float]:
        """``[lo, hi)`` value bounds of bucket ``index``."""
        if not 0 <= index < self.bucket_count:
            raise ValueError(f"bucket index {index} out of range")
        octave = self.min_exp + index // self.subbuckets
        sub = index % self.subbuckets
        base = float(2 ** octave)
        return (base * (1.0 + sub / self.subbuckets),
                base * (1.0 + (sub + 1) / self.subbuckets))


#: The one layout the stack uses (1 ns resolution up to ~18 simulated
#: minutes, 6.25% worst-case relative error).
DEFAULT_SKETCH_LAYOUT = SketchLayout()

#: Canonical sketch state (layout triple, sorted sparse buckets, count,
#: clamped count, min, max): two sketches hold the same samples' buckets
#: exactly when their payloads are equal.
SketchPayload = typing.Tuple[
    typing.Tuple[int, int, int],
    typing.List[typing.Tuple[int, int]],
    int, int, float, float]


class LatencySketch:
    """Fixed-bucket log-linear latency sketch with exact-rank quantiles.

    The sketch state is **integers only** (sparse bucket counts) plus
    exact float ``min``/``max``, so :meth:`merge` is associative,
    commutative, and byte-deterministic: folding sharded cells' sketches
    in any grouping reproduces the serial sketch bit-for-bit.  Quantiles
    use the module-level nearest-rank definition over bucket
    populations; the returned value is the containing bucket's upper
    bound (clamped into ``[min, max]``), so it is within one bucket's
    relative width — ``1 / subbuckets`` — of the exact nearest-rank
    sample, and never below the median of what the bucket can hold.

    Values below the grid clamp into the first bucket, values at or
    above ``layout.max_value`` into the last; ``clamped`` counts both
    so saturation is observable.  NaN is rejected.
    """

    def __init__(self, name: str = "sketch",
                 layout: SketchLayout = DEFAULT_SKETCH_LAYOUT) -> None:
        self.name = name
        self.layout = layout
        self._counts: typing.Dict[int, int] = {}
        self.count = 0
        self.clamped = 0
        self.min_value = math.inf
        self.max_value = -math.inf

    def __len__(self) -> int:
        return self.count

    def add(self, value: float) -> None:
        """Record one sample (a latency in ns; NaN raises)."""
        if math.isnan(value):
            raise ValueError(f"cannot sketch NaN into {self.name!r}")
        layout = self.layout
        if value < layout.min_value:
            index = 0
            self.clamped += 1
        elif value >= layout.max_value:
            index = layout.bucket_count - 1
            self.clamped += 1
        else:
            # layout.index() inlined: one sample per chunk makes this
            # the hottest stats call in both engines.
            mantissa, exponent = math.frexp(value)
            subbuckets = layout.subbuckets
            index = ((exponent - 1 - layout.min_exp) * subbuckets
                     + int((mantissa - 0.5) * 2.0 * subbuckets))
        self._counts[index] = self._counts.get(index, 0) + 1
        self.count += 1
        if value < self.min_value:
            self.min_value = value
        if value > self.max_value:
            self.max_value = value

    @property
    def mean(self) -> float:
        """Bucket-midpoint approximate mean (0 when empty).

        Computed on demand from the integer bucket counts in sorted
        bucket order, so it is a pure function of the (merge-exact)
        sketch state — identical for any merge grouping.
        """
        if not self.count:
            return 0.0
        total = 0.0
        for index in sorted(self._counts):
            lo, hi = self.layout.bounds(index)
            total += self._counts[index] * (lo + hi) / 2.0
        return total / self.count

    def percentile(self, fraction: float) -> float:
        """Nearest-rank quantile over the bucket populations.

        Rank definition matches :meth:`Histogram.percentile` exactly
        (``max(1, ceil(q * N))``); the value resolution is one bucket.
        Raises ``ValueError`` on an empty sketch.
        """
        if not 0.0 <= fraction <= 1.0:
            raise ValueError(f"fraction must be in [0, 1], got {fraction}")
        if not self.count:
            raise ValueError(f"percentile of empty sketch {self.name!r}")
        rank = max(1, math.ceil(fraction * self.count))
        cumulative = 0
        for index in sorted(self._counts):
            cumulative += self._counts[index]
            if cumulative >= rank:
                upper = self.layout.bounds(index)[1]
                return min(max(upper, self.min_value), self.max_value)
        raise AssertionError("bucket counts inconsistent with count")

    def quantiles(self) -> typing.Dict[str, float]:
        """``{"p50", "p95", "p99", "p999"}`` (``{}`` when empty)."""
        if not self.count:
            return {}
        return {name: self.percentile(q) for name, q in QUANTILE_TARGETS}

    def merge(self, other: "LatencySketch") -> None:
        """Fold ``other`` into this sketch (associative, commutative).

        Layouts must be equal — except that a pristine (never-written)
        sketch adopts the incoming layout, so a cell's sketch can merge
        into a freshly created default container.
        """
        if other.layout != self.layout:
            if self.count == 0 and not self._counts:
                self.layout = other.layout
            else:
                raise ValueError(
                    f"cannot merge sketch layouts {self.layout.spec()} "
                    f"and {other.layout.spec()}")
        for index, bucket_count in other._counts.items():
            self._counts[index] = self._counts.get(index, 0) + bucket_count
        self.count += other.count
        self.clamped += other.clamped
        if other.min_value < self.min_value:
            self.min_value = other.min_value
        if other.max_value > self.max_value:
            self.max_value = other.max_value

    def to_payload(self) -> SketchPayload:
        """Picklable state in canonical (sorted-bucket) order."""
        return ((self.layout.min_exp, self.layout.max_exp,
                 self.layout.subbuckets),
                sorted(self._counts.items()),
                self.count, self.clamped, self.min_value, self.max_value)

    def __repr__(self) -> str:
        return (f"<LatencySketch {self.name} {self.layout.spec()} "
                f"n={self.count}>")
