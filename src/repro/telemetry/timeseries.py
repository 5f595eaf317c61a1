"""Windowed time-series sampling on *simulated* time.

Everything the stack reported before this module was an end-of-run
aggregate; transient behavior — queue buildup, write-pause stalls,
burst absorption — was invisible.  This module adds the time axis:

* :class:`SamplingConfig` is the ambient provider installed with
  :func:`repro.sim.sampling.use_sampling`.  Each
  :class:`~repro.sim.engine.Simulator` built inside its scope asks it
  for a fresh :class:`Sampler` (or ``None`` when metrics are off, which
  keeps the engine's zero-overhead fast drain).
* :class:`Sampler` closes fixed-width windows of simulated time as the
  engine advances and records one sample per window per instrument
  into ordinary registry :class:`~repro.sim.stats.TimeSeries`
  containers — so sharded runs merge byte-identically through
  :meth:`~repro.telemetry.metrics.MetricsRegistry.merge` with no extra
  machinery.
* :class:`TimeWeightedTracker` turns instantaneous level changes
  (queue depth, pairs in use, awake PEs) into per-window time-weighted
  means.

Window semantics
----------------
Windows are ``[k*w, (k+1)*w)`` for window width ``w`` ns.  The engine
calls :meth:`Sampler.advance` with each event timestamp *before* the
events at that instant run, so an update at exactly a boundary belongs
to the window that *starts* there.  Window samples are recorded at the
window's start time.  Boundaries are computed from an integer window
index (``(k+1) * w``), never by repeated addition, so long runs do not
drift.  A partial final window (the run ends between boundaries) is
**dropped** — it would average over less simulated time than every
other sample and skew plots; run with ``until=`` landing on a boundary
to flush it.

With ``retention = R``, each series keeps only its most recent ``R``
windows (a bounded ring for long service-layer runs); ``None`` retains
everything.
"""

from __future__ import annotations

import json
import math
import os
import sys
import typing

from repro.sim.sampling import SamplerHook
from repro.sim.stats import LatencySketch, TimeSeries
from repro.telemetry.metrics import MetricsRegistry, current_metrics

#: Schema tag stamped into every exported time-series document.
TIMESERIES_SCHEMA = "repro.timeseries/1"

#: Default sampling window: 1 µs of simulated time.
DEFAULT_WINDOW_NS = 1000.0


class TimeWeightedTracker:
    """Per-window time-weighted mean of an instantaneous level.

    Components report *level changes* (:meth:`set_level` /
    :meth:`adjust`) at the current simulated time; the owning
    :class:`Sampler` closes each window and records the level's
    time-weighted mean over it.  The engine advances the sampler before
    event callbacks run, so every update arrives inside the currently
    open window — the tracker never has to split an update across
    boundaries.
    """

    def __init__(self, series: TimeSeries) -> None:
        self.series = series
        self._level = 0.0
        self._area = 0.0
        self._cursor = 0.0

    @property
    def level(self) -> float:
        """The current instantaneous level."""
        return self._level

    def set_level(self, now: float, level: float) -> None:
        """The level changed to ``level`` at simulated time ``now``."""
        if now > self._cursor:
            self._area += self._level * (now - self._cursor)
            self._cursor = now
        self._level = level

    def adjust(self, now: float, delta: float) -> None:
        """The level changed by ``delta`` at simulated time ``now``."""
        self.set_level(now, self._level + delta)

    def close(self, start: float, end: float) -> float:
        """Finish the window ``[start, end)``; returns its mean level."""
        self._area += self._level * (end - self._cursor)
        mean = self._area / (end - start)
        self._area = 0.0
        self._cursor = end
        return mean


class Sampler(SamplerHook):
    """Engine-driven window closer for one simulator.

    Instruments register through :meth:`track` (time-weighted levels)
    and :meth:`watch_gauge` (boundary-sampled callables).  Samples land
    in registry series at the supplied dotted paths, so everything
    downstream — snapshots, the cell merge, export — sees them as
    ordinary metrics.
    """

    def __init__(self, registry: MetricsRegistry, window_ns: float,
                 retention: typing.Optional[int] = None) -> None:
        if not window_ns > 0 or math.isinf(window_ns):
            raise ValueError(f"window must be positive/finite, got {window_ns}")
        if retention is not None and retention < 1:
            raise ValueError(f"retention must be >= 1, got {retention}")
        self.window_ns = window_ns
        self.retention = retention
        self._registry = registry
        self._window_index = 0
        self._next_boundary = window_ns
        self._trackers: typing.List[
            typing.Tuple[TimeSeries, TimeWeightedTracker]] = []
        self._watches: typing.List[
            typing.Tuple[TimeSeries, typing.Callable[[], float]]] = []

    # -- instrument registration ---------------------------------------
    def track(self, path: str) -> TimeWeightedTracker:
        """A tracker whose per-window means land at ``path``."""
        series = self._registry.series(path)
        tracker = TimeWeightedTracker(series)
        self._trackers.append((series, tracker))
        return tracker

    def watch_gauge(self, path: str,
                    read: typing.Callable[[], float]) -> None:
        """Sample ``read()`` at every window boundary into ``path``."""
        self._watches.append((self._registry.series(path), read))

    # -- engine hook ----------------------------------------------------
    def advance(self, now: float) -> None:
        """Close every window boundary at or before ``now``.

        One float compare on the hot path; the loop body only runs when
        a boundary was actually crossed.
        """
        if now < self._next_boundary:
            return
        window_ns = self.window_ns
        while self._next_boundary <= now:
            start = self._window_index * window_ns
            end = self._next_boundary
            for series, tracker in self._trackers:
                series.record(start, tracker.close(start, end))
                self._trim(series)
            for series, read in self._watches:
                series.record(start, read())
                self._trim(series)
            self._window_index += 1
            self._next_boundary = (self._window_index + 1) * window_ns

    def _trim(self, series: TimeSeries) -> None:
        retention = self.retention
        if retention is not None and len(series.times) > retention:
            del series.times[:-retention]
            del series.values[:-retention]


class SamplingConfig:
    """Ambient provider: one sampling policy, one sampler per simulator.

    Install with :func:`repro.sim.sampling.use_sampling`; simulators
    built inside the scope sample into the ambient metrics registry.
    ``create_sampler`` returns ``None`` when metrics are disabled, so a
    sampling scope without a registry costs nothing.
    """

    def __init__(self, window_ns: float = DEFAULT_WINDOW_NS,
                 retention: typing.Optional[int] = None) -> None:
        if not window_ns > 0 or math.isinf(window_ns):
            raise ValueError(f"window must be positive/finite, got {window_ns}")
        self.window_ns = window_ns
        self.retention = retention

    def create_sampler(self) -> typing.Optional[Sampler]:
        """A fresh :class:`Sampler` bound to the ambient registry."""
        registry = current_metrics()
        if not registry.enabled:
            return None
        return Sampler(registry, self.window_ns, self.retention)

    def spec(self) -> typing.Tuple[float, typing.Optional[int]]:
        """Hashable identity of the policy: ``(window_ns, retention)``."""
        return (self.window_ns, self.retention)


# ----------------------------------------------------------------------
# Export
# ----------------------------------------------------------------------
def export_document(registry: MetricsRegistry,
                    window_ns: float) -> typing.Dict[str, typing.Any]:
    """Every registry series and sketch as one JSON-ready document.

    Layout (schema ``repro.timeseries/1``)::

        {"schema": "repro.timeseries/1",
         "window_ns": 1000.0,
         "series": {path: {"t": [...], "v": [...]}},
         "sketches": {path: {"spec": "log2[0,40)x16", "count": N,
                             "clamped": C, "min": ..., "max": ...,
                             "buckets": [[index, count], ...],
                             "quantiles": {"p50": ..., ...}}}}
    """
    series: typing.Dict[str, typing.Any] = {}
    sketches: typing.Dict[str, typing.Any] = {}
    for path in registry.paths():
        container = registry.get(path)
        if isinstance(container, TimeSeries) and len(container):
            series[path] = {"t": list(container.times),
                            "v": list(container.values)}
        elif isinstance(container, LatencySketch) and container.count:
            sketches[path] = {
                "spec": container.layout.spec(),
                "count": container.count,
                "clamped": container.clamped,
                "min": container.min_value,
                "max": container.max_value,
                "buckets": sorted(container._counts.items()),
                "quantiles": container.quantiles(),
            }
    return {"schema": TIMESERIES_SCHEMA, "window_ns": window_ns,
            "series": series, "sketches": sketches}


def write_timeseries(path: str, document: typing.Dict[str, typing.Any]
                     ) -> None:
    """Write an exported document as JSON (sorted keys, so reruns
    compare byte for byte)."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")


def load_timeseries(path: str) -> typing.Dict[str, typing.Any]:
    """Load a JSON document written by :func:`write_timeseries`."""
    with open(path, encoding="utf-8") as handle:
        loaded = json.load(handle)
        if not isinstance(loaded, dict):
            raise ValueError(f"{path}: not a time-series document")
        return loaded


def validate_timeseries(document: typing.Dict[str, typing.Any]
                        ) -> typing.List[str]:
    """Schema-check an exported document; returns problem strings."""
    problems: typing.List[str] = []
    if document.get("schema") != TIMESERIES_SCHEMA:
        problems.append(
            f"schema is {document.get('schema')!r}, "
            f"expected {TIMESERIES_SCHEMA!r}")
    window = document.get("window_ns")
    if not isinstance(window, (int, float)) or not window > 0:
        problems.append(f"window_ns must be a positive number, got {window!r}")
    series = document.get("series")
    if not isinstance(series, dict):
        problems.append("missing 'series' mapping")
        series = {}
    for name, entry in series.items():
        times = entry.get("t") if isinstance(entry, dict) else None
        values = entry.get("v") if isinstance(entry, dict) else None
        if not isinstance(times, list) or not isinstance(values, list):
            problems.append(f"series {name!r}: needs 't' and 'v' arrays")
            continue
        if len(times) != len(values):
            problems.append(
                f"series {name!r}: {len(times)} times vs "
                f"{len(values)} values")
        if any(b < a for a, b in zip(times, times[1:])):
            problems.append(f"series {name!r}: timestamps not monotone")
    sketches = document.get("sketches")
    if not isinstance(sketches, dict):
        problems.append("missing 'sketches' mapping")
        sketches = {}
    for name, entry in sketches.items():
        if not isinstance(entry, dict) or "quantiles" not in entry:
            problems.append(f"sketch {name!r}: needs a 'quantiles' mapping")
            continue
        total = sum(count for _, count in entry.get("buckets", []))
        if total != entry.get("count"):
            problems.append(
                f"sketch {name!r}: bucket counts sum to {total}, "
                f"count says {entry.get('count')}")
    return problems


# ----------------------------------------------------------------------
# Terminal rendering (`python -m repro.telemetry watch`)
# ----------------------------------------------------------------------
_SPARK = "▁▂▃▄▅▆▇█"
_HEAT = " ░▒▓█"
#: ASCII fallbacks (same level counts) for dumb/non-UTF-8 terminals.
_SPARK_ASCII = "_.-:=+*#"
_HEAT_ASCII = " .:*#"


def supports_unicode(stream: typing.Optional[typing.TextIO] = None) -> bool:
    """Whether ``stream`` (stdout by default) can show the block glyphs.

    ``TERM=dumb`` or an encoding that cannot represent the sparkline
    alphabet (e.g. a C-locale pipe) means the unicode renderings would
    come out as mojibake or raise; callers fall back to ASCII glyphs.
    """
    if os.environ.get("TERM") == "dumb":
        return False
    if stream is None:
        stream = sys.stdout
    encoding = getattr(stream, "encoding", None) or "ascii"
    try:
        (_SPARK + _HEAT).encode(encoding)
    except (UnicodeEncodeError, LookupError):
        return False
    return True


def sparkline(values: typing.Sequence[float], width: int = 60,
              ascii_: bool = False) -> str:
    """A sparkline of ``values``, resampled to ``width`` cells.

    ``ascii_`` swaps the unicode block glyphs for ASCII ramps (same
    number of levels) on terminals :func:`supports_unicode` rejects.
    """
    glyphs = _SPARK_ASCII if ascii_ else _SPARK
    if not values:
        return ""
    cells = _resample(values, width)
    lo, hi = min(cells), max(cells)
    span = hi - lo
    if span <= 0:
        return glyphs[0] * len(cells)
    return "".join(
        glyphs[min(len(glyphs) - 1,
                   int((value - lo) / span * len(glyphs)))]
        for value in cells)


def heatline(values: typing.Sequence[float], width: int = 60,
             ascii_: bool = False) -> str:
    """Density shading of ``values`` — reads as a one-row heatmap."""
    glyphs = _HEAT_ASCII if ascii_ else _HEAT
    if not values:
        return ""
    cells = _resample(values, width)
    lo, hi = min(cells), max(cells)
    span = hi - lo
    if span <= 0:
        return glyphs[0] * len(cells)
    return "".join(
        glyphs[min(len(glyphs) - 1,
                  int((value - lo) / span * len(glyphs)))]
        for value in cells)


def _resample(values: typing.Sequence[float],
              width: int) -> typing.List[float]:
    if len(values) <= width:
        return list(values)
    out = []
    for i in range(width):
        lo = i * len(values) // width
        hi = max(lo + 1, (i + 1) * len(values) // width)
        chunk = values[lo:hi]
        out.append(sum(chunk) / len(chunk))
    return out


def render_watch(document: typing.Dict[str, typing.Any],
                 width: int = 60, heat: bool = False,
                 ascii_: bool = False) -> str:
    """The terminal view: one sparkline per series + quantile table."""
    lines: typing.List[str] = []
    series = document.get("series", {})
    window = document.get("window_ns", 0.0)
    lines.append(f"time series ({len(series)} series, "
                 f"window {window:g} ns)")
    render = heatline if heat else sparkline
    name_width = max((len(name) for name in series), default=0)
    for name in sorted(series):
        values = series[name]["v"]
        lines.append(
            f"  {name:<{name_width}}  {render(values, width, ascii_)}  "
            f"min={min(values):g} max={max(values):g} "
            f"last={values[-1]:g}" if values else
            f"  {name:<{name_width}}  (empty)")
    sketches = document.get("sketches", {})
    if sketches:
        lines.append("")
        lines.append(f"latency sketches ({len(sketches)})")
        name_width = max(len(name) for name in sketches)
        header = (f"  {'sketch':<{name_width}}  {'count':>8}  "
                  f"{'p50':>10}  {'p95':>10}  {'p99':>10}  {'p999':>10}")
        lines.append(header)
        for name in sorted(sketches):
            entry = sketches[name]
            quantiles = entry["quantiles"]
            lines.append(
                f"  {name:<{name_width}}  {entry['count']:>8}  "
                + "  ".join(f"{quantiles.get(q, float('nan')):>10.1f}"
                            for q in ("p50", "p95", "p99", "p999")))
    return "\n".join(lines)
