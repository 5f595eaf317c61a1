"""Hierarchical metrics registry over the ``sim/stats`` containers.

The simulator's components already keep :class:`~repro.sim.stats.Counter`
/ :class:`~repro.sim.stats.Histogram` / :class:`~repro.sim.stats.Breakdown`
instances; the registry gives those containers *names in a shared
namespace* — dotted component paths such as ``pram.ch0.part3.rab_hits``,
``sched.interleave.overlap_ns`` or ``pe.3.sleep_ns`` — so an experiment
can snapshot, filter (fnmatch patterns) and tabulate everything the run
recorded without knowing which object owns which container.

Like the tracer, the registry is ambient (:func:`current_metrics` /
:func:`use_metrics`) and defaults to a disabled instance: components
register unconditionally, and when no registry is active the calls
hand back unregistered throwaway containers and record nothing.
"""

from __future__ import annotations

import contextlib
import contextvars
import fnmatch
import math
import sys
import typing

from repro.sim.stats import (
    Breakdown,
    Counter,
    Histogram,
    LatencySketch,
    TimeSeries,
)

#: Anything the registry can hold under a path.
Container = typing.Union[
    Counter, Histogram, Breakdown, TimeSeries, LatencySketch]


def _caller_site(depth: int) -> str:
    """``file:line`` of the frame ``depth`` levels above the caller."""
    frame = sys._getframe(depth + 1)
    return f"{frame.f_code.co_filename}:{frame.f_lineno}"


class MetricsRegistry:
    """Named counters/gauges/histograms with hierarchical paths.

    Paths are dotted strings.  ``counter``/``histogram``/``breakdown``/
    ``series`` are get-or-create: two callers asking for the same path
    share one container.  :meth:`attach` registers a container a
    component already owns; :meth:`component_prefix` reserves a unique
    namespace per component instance so two subsystems in one process
    (e.g. the two policy runs inside the Fig. 12 experiment) never
    silently merge their numbers — the second registrant gets a ``#2``
    suffix.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self._containers: typing.Dict[str, Container] = {}
        self._gauges: typing.Dict[str, float] = {}
        # assigned prefix -> the base it was reserved under, in
        # reservation order — merge() replays reservations to keep
        # ``#N`` suffixes deterministic.
        self._prefixes: typing.Dict[str, str] = {}
        # base -> most recently assigned prefix for it (see
        # latest_prefix).
        self._latest_prefix: typing.Dict[str, str] = {}
        # Paths whose last write came through gauge_max (peak semantics);
        # merge() folds these with max() instead of overwrite.
        self._gauge_max_paths: typing.Set[str] = set()
        # path -> "file:line" of the registration site, recorded only at
        # registration time so collisions can name both parties.
        self._sites: typing.Dict[str, str] = {}

    # -- namespace management ------------------------------------------
    def component_prefix(self, base: str) -> str:
        """Reserve a unique dotted prefix for one component instance."""
        if not self.enabled:
            return base
        prefix = base
        counter = 2
        while prefix in self._prefixes:
            prefix = f"{base}#{counter}"
            counter += 1
        self._prefixes[prefix] = base
        self._latest_prefix[base] = prefix
        return prefix

    def latest_prefix(self, base: str) -> str:
        """The most recently reserved prefix for ``base`` (``base``
        itself if never reserved).

        For satellite components that record into another component's
        namespace — e.g. the PSC's per-PE sleep clocks live under the
        owning PE's ``pe.N`` prefix, whatever ``#K`` suffix that PE was
        assigned.
        """
        return self._latest_prefix.get(base, base)

    # -- registration --------------------------------------------------
    def attach(self, path: str, container: Container) -> str:
        """Register an existing container; returns the path (``path``).

        Re-attaching the *same* container object is idempotent.
        Attaching a *different* object under an occupied path raises
        ``ValueError`` naming both registration sites: a dotted path
        names exactly one series, and silently suffixing the second
        registrant produced charts where half a component's samples hid
        under a ``#N`` name nobody plotted.  Components wanting
        per-instance namespaces reserve one with
        :meth:`component_prefix` instead.
        """
        if not self.enabled:
            return path
        existing = self._containers.get(path)
        if existing is container:
            return path
        if existing is not None or path in self._gauges:
            first = self._sites.get(path, "<unknown site>")
            raise ValueError(
                f"metric path {path!r} is already registered (first "
                f"registered at {first}, now re-registered with a "
                f"different container at {_caller_site(1)}); reserve a "
                f"component_prefix() for per-instance namespaces"
            )
        self._containers[path] = container
        self._sites[path] = _caller_site(1)
        return path

    def gauge(self, path: str, value: float) -> None:
        """Set (overwrite) a scalar gauge."""
        if not self.enabled:
            return
        self._gauges[path] = value
        self._gauge_max_paths.discard(path)

    def gauge_max(self, path: str, value: float) -> None:
        """Raise a scalar gauge to ``value`` if it is the new peak."""
        if not self.enabled:
            return
        self._gauge_max_paths.add(path)
        current = self._gauges.get(path)
        if current is None or value > current:
            self._gauges[path] = value

    # -- get-or-create containers --------------------------------------
    def counter(self, path: str) -> Counter:
        """Shared counter at ``path`` (created on first use)."""
        return self._get_or_create(path, Counter)

    def histogram(self, path: str) -> Histogram:
        """Shared histogram at ``path`` (created on first use)."""
        return self._get_or_create(path, Histogram)

    def breakdown(self, path: str) -> Breakdown:
        """Shared breakdown at ``path`` (created on first use)."""
        return self._get_or_create(path, Breakdown)

    def series(self, path: str) -> TimeSeries:
        """Shared time series at ``path`` (created on first use)."""
        return self._get_or_create(path, TimeSeries)

    def sketch(self, path: str) -> LatencySketch:
        """Shared latency sketch at ``path`` (created on first use)."""
        return self._get_or_create(path, LatencySketch)

    _C = typing.TypeVar("_C", Counter, Histogram, Breakdown, TimeSeries,
                        LatencySketch)

    def _get_or_create(self, path: str, kind: typing.Type[_C]) -> _C:
        if not self.enabled:
            return kind(path)
        container = self._containers.get(path)
        if container is None:
            container = kind(path)
            self._containers[path] = container
        elif not isinstance(container, kind):
            raise TypeError(
                f"metric {path!r} already registered as "
                f"{type(container).__name__}, not {kind.__name__}"
            )
        return container

    # -- merge ----------------------------------------------------------
    def merge(self, other: "MetricsRegistry") -> None:
        """Fold another registry (one cell's) into this one.

        Call in cell order: ``other``'s prefix reservations are replayed
        here, so a cell's ``subsys`` lands as ``subsys#2`` when this
        registry already holds one, as in a serial run.  Paths outside
        every reservation are shared and accumulate through each
        container's own ``merge``.  Plain gauges overwrite (the last
        cell wins); ``gauge_max`` peaks fold with ``max``.  ``other``
        is only read: its containers are never adopted, so it stays the
        cell's own record.
        """
        if not self.enabled:
            return
        remap = {assigned: self.component_prefix(base)
                 for assigned, base in other._prefixes.items()}

        def rewrite(path: str) -> str:
            best = ""
            for assigned in remap:
                if ((path == assigned or path.startswith(assigned + "."))
                        and len(assigned) > len(best)):
                    best = assigned
            if not best:
                return path
            return remap[best] + path[len(best):]

        for path, container in other._containers.items():
            # Any: each container's merge takes only its own kind, and
            # _get_or_create raises if the target holds another kind.
            kind: typing.Any = type(container)
            self._get_or_create(rewrite(path), kind).merge(container)
        for path, value in other._gauges.items():
            if path in other._gauge_max_paths:
                self.gauge_max(rewrite(path), value)
            else:
                self.gauge(rewrite(path), value)

    # -- inspection -----------------------------------------------------
    def paths(self, pattern: str = "*") -> typing.List[str]:
        """All registered paths matching the fnmatch ``pattern``."""
        everything = sorted(set(self._containers) | set(self._gauges))
        return [p for p in everything if fnmatch.fnmatch(p, pattern)]

    def get(self, path: str) -> typing.Optional[Container]:
        """The container registered at ``path`` (None if absent)."""
        return self._containers.get(path)

    def snapshot(self, pattern: str = "*"
                 ) -> typing.Dict[str, float]:
        """Flat ``path -> scalar`` view of everything matching ``pattern``.

        Histograms flatten to ``path.count/.mean/.p50/.p99``; breakdowns
        flatten to one entry per category plus ``path.total``; series to
        ``path.samples``.
        """
        flat: typing.Dict[str, float] = {}
        for path in self.paths(pattern):
            if path in self._gauges:
                flat[path] = self._gauges[path]
                continue
            container = self._containers[path]
            if isinstance(container, Counter):
                flat[path] = container.value
            elif isinstance(container, Histogram):
                flat[f"{path}.count"] = float(len(container))
                flat[f"{path}.mean"] = container.mean
                if len(container):
                    flat[f"{path}.p50"] = container.percentile(0.50)
                    flat[f"{path}.p99"] = container.percentile(0.99)
            elif isinstance(container, Breakdown):
                for category, amount in container.as_dict().items():
                    flat[f"{path}.{category}"] = amount
                flat[f"{path}.total"] = container.total
            elif isinstance(container, TimeSeries):
                flat[f"{path}.samples"] = float(len(container))
            elif isinstance(container, LatencySketch):
                flat[f"{path}.count"] = float(container.count)
                for quantile_name, value in container.quantiles().items():
                    flat[f"{path}.{quantile_name}"] = value
        return flat

    def summary_table(self, pattern: str = "*") -> str:
        """Aligned two-column text table of :meth:`snapshot`."""
        flat = self.snapshot(pattern)
        if not flat:
            return "(no metrics recorded)"
        width = max(len(path) for path in flat)
        lines = [f"{'metric':<{width}}  value",
                 f"{'-' * width}  {'-' * 12}"]
        for path in sorted(flat):
            value = flat[path]
            if math.isnan(value):
                rendered = "nan"
            elif value == int(value) and abs(value) < 1e15:
                rendered = f"{int(value)}"
            else:
                rendered = f"{value:.4g}"
            lines.append(f"{path:<{width}}  {rendered}")
        return "\n".join(lines)


#: Disabled registry: hands out unregistered containers, records nothing.
NULL_METRICS = MetricsRegistry(enabled=False)


# ----------------------------------------------------------------------
# Ambient registry (context-local, mirrors tracer.use_tracer)
# ----------------------------------------------------------------------
_AMBIENT: contextvars.ContextVar[MetricsRegistry] = contextvars.ContextVar(
    "repro_telemetry_metrics", default=NULL_METRICS)


def current_metrics() -> MetricsRegistry:
    """The context's ambient registry (:data:`NULL_METRICS` by default)."""
    return _AMBIENT.get()


@contextlib.contextmanager
def use_metrics(registry: MetricsRegistry
                ) -> typing.Iterator[MetricsRegistry]:
    """Install ``registry`` as the ambient registry for the body."""
    token = _AMBIENT.set(registry)
    try:
        yield registry
    finally:
        _AMBIENT.reset(token)
