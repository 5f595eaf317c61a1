"""Telemetry for the DRAM-less stack: span tracing, metrics, exporters.

Three layers, all ambient-by-default and zero-overhead when disabled:

* :mod:`repro.telemetry.tracer` — hierarchical spans on simulated time
  (``request -> channel -> phase -> array access``); the null tracer
  allocates nothing.
* :mod:`repro.telemetry.metrics` — a registry naming the ``sim/stats``
  containers under dotted component paths (``pram.ch0.part3.rab_hits``).
* :mod:`repro.telemetry.export` — Perfetto/Chrome JSON, a JSON-lines
  span log shared with ``repro.analysis``, and a terminal summary.

:class:`Telemetry` is one observation session — a recording tracer, a
registry and a windowed sampler together — for the experiments CLI's
``--observe`` and the cell runner.

The time-weighted views keep no accumulators of their own: the
sampler's window means (:mod:`repro.telemetry.timeseries`) are read
off the level series the components already record, with
:meth:`~repro.sim.stats.TimeSeries.time_weighted_mean`, and busy time
and queue depth (:mod:`repro.telemetry.gauges`) off the recorded spans.

Only what the model itself imports loads with the package: the
simulator kernel imports the tracer, and the devices the metrics
registry and the sampler.  Every other public name — the exporters,
the session, the attribution profile, the gauges, BENCH compare, the
host profiler and the dashboard — loads from its submodule the first
time it is looked up (PEP 562), so a run that neither observes nor
profiles never imports them.

NOTE: ``tracer`` must stay import-light (stdlib only) — the simulator
kernel imports it, so anything heavier would cycle.  Keep the ``tracer``
import first here: partially-initialized-package imports from
``sim.engine`` rely on it being fully loaded.
"""

import importlib
import typing

from repro.telemetry.tracer import (
    NULL_TRACER,
    RecordingTracer,
    Span,
    Tracer,
    current_tracer,
    use_tracer,
)

from repro.telemetry.metrics import (  # noqa: E402  (tracer must come first)
    NULL_METRICS,
    MetricsRegistry,
    current_metrics,
    use_metrics,
)

from repro.telemetry.timeseries import (  # noqa: E402
    DEFAULT_WINDOW_NS,
    TIMESERIES_SCHEMA,
    Sampler,
    SamplingConfig,
    export_document,
    load_timeseries,
    render_watch,
    sparkline,
    supports_unicode,
    validate_timeseries,
    write_timeseries,
)

if typing.TYPE_CHECKING:  # pragma: no cover - loaded by __getattr__
    from repro.telemetry.bench import (
        BenchMetric,
        BenchReport,
        CompareResult,
        MetricDelta,
        bench_filename,
        collect_provenance,
        compare,
        load_bench,
        render_compare,
        write_bench,
    )
    from repro.telemetry.dashboard import (
        ExperimentProfile,
        build_profile,
        render_html,
        render_text,
    )
    from repro.telemetry.export import (
        load_spanlog,
        perfetto_document,
        perfetto_events,
        spanlog_commands,
        spanlog_lines,
        spanlog_spans,
        validate_perfetto,
        validate_spanlog,
        write_perfetto,
        write_spanlog,
    )
    from repro.telemetry.gauges import (
        LittlesLawCheck,
        TrackUtilization,
        capture_window,
        littles_law,
        request_depth_series,
        utilization_table,
    )
    from repro.telemetry.hostprof import (
        HostProfiler,
        classify_event,
        load_speedscope,
        render_flame,
        render_summary,
        speedscope_document,
        validate_speedscope,
        write_speedscope,
    )
    from repro.telemetry.profile import (
        SEGMENTS,
        AttributionSummary,
        RequestAttribution,
        attribute_requests,
        summarize,
        verify_attribution,
    )
    from repro.telemetry.session import Telemetry

#: Submodule -> the public names it owns that load on first use.
_LAZY_MODULES: typing.Dict[str, typing.Tuple[str, ...]] = {
    "bench": ("BenchMetric", "BenchReport", "CompareResult", "MetricDelta",
              "bench_filename", "collect_provenance", "compare",
              "load_bench", "render_compare", "write_bench"),
    "dashboard": ("ExperimentProfile", "build_profile", "render_html",
                  "render_text"),
    "export": ("load_spanlog", "perfetto_document", "perfetto_events",
               "spanlog_commands", "spanlog_lines", "spanlog_spans",
               "validate_perfetto", "validate_spanlog", "write_perfetto",
               "write_spanlog"),
    "gauges": ("LittlesLawCheck", "TrackUtilization", "capture_window",
               "littles_law", "request_depth_series", "utilization_table"),
    "hostprof": ("HostProfiler", "classify_event", "load_speedscope",
                 "render_flame", "render_summary", "speedscope_document",
                 "validate_speedscope", "write_speedscope"),
    "profile": ("SEGMENTS", "AttributionSummary", "RequestAttribution",
                "attribute_requests", "summarize", "verify_attribution"),
    "session": ("Telemetry",),
}
_OWNER = {name: module for module, names in _LAZY_MODULES.items()
          for name in names}


def __getattr__(name: str) -> typing.Any:
    """Load a public name from its submodule on first access."""
    module = _OWNER.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


__all__ = [
    "AttributionSummary",
    "BenchMetric",
    "BenchReport",
    "CompareResult",
    "DEFAULT_WINDOW_NS",
    "ExperimentProfile",
    "HostProfiler",
    "LittlesLawCheck",
    "MetricDelta",
    "MetricsRegistry",
    "NULL_METRICS",
    "NULL_TRACER",
    "RecordingTracer",
    "RequestAttribution",
    "SEGMENTS",
    "Sampler",
    "SamplingConfig",
    "Span",
    "TIMESERIES_SCHEMA",
    "Telemetry",
    "Tracer",
    "TrackUtilization",
    "attribute_requests",
    "bench_filename",
    "build_profile",
    "capture_window",
    "classify_event",
    "collect_provenance",
    "compare",
    "current_metrics",
    "current_tracer",
    "export_document",
    "littles_law",
    "load_bench",
    "load_spanlog",
    "load_speedscope",
    "load_timeseries",
    "perfetto_document",
    "perfetto_events",
    "render_compare",
    "render_flame",
    "render_html",
    "render_summary",
    "render_text",
    "render_watch",
    "request_depth_series",
    "spanlog_commands",
    "spanlog_lines",
    "spanlog_spans",
    "sparkline",
    "speedscope_document",
    "summarize",
    "supports_unicode",
    "use_metrics",
    "use_tracer",
    "utilization_table",
    "validate_perfetto",
    "validate_spanlog",
    "validate_speedscope",
    "validate_timeseries",
    "verify_attribution",
    "write_bench",
    "write_perfetto",
    "write_spanlog",
    "write_speedscope",
    "write_timeseries",
]
