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

NOTE: ``tracer`` must stay import-light (stdlib only) — the simulator
kernel imports it, so anything heavier would cycle.  Keep the ``tracer``
import first here: partially-initialized-package imports from
``sim.engine`` rely on it being fully loaded.
"""

from repro.telemetry.tracer import (
    NULL_TRACER,
    KernelEventRecorder,
    MultiTracer,
    RecordingTracer,
    Span,
    Tracer,
    combine,
    current_tracer,
    use_tracer,
)

from repro.telemetry.metrics import (  # noqa: E402  (tracer must come first)
    NULL_METRICS,
    MetricsRegistry,
    current_metrics,
    use_metrics,
)

from repro.telemetry.export import (  # noqa: E402
    load_spanlog,
    perfetto_document,
    perfetto_events,
    spanlog_lines,
    spanlog_spans,
    validate_perfetto,
    write_perfetto,
    write_spanlog,
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

from repro.telemetry.session import Telemetry  # noqa: E402

from repro.telemetry.profile import (  # noqa: E402
    SEGMENTS,
    AttributionSummary,
    RequestAttribution,
    attribute_requests,
    summarize,
    verify_attribution,
)

from repro.telemetry.gauges import (  # noqa: E402
    LittlesLawCheck,
    TrackUtilization,
    capture_window,
    littles_law,
    request_depth_series,
    utilization_table,
)

from repro.telemetry.bench import (  # noqa: E402
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

from repro.telemetry.hostprof import (  # noqa: E402
    HostProfiler,
    classify_event,
    load_speedscope,
    render_flame,
    render_summary,
    speedscope_document,
    validate_speedscope,
    write_speedscope,
)

from repro.telemetry.dashboard import (  # noqa: E402
    ExperimentProfile,
    build_profile,
    render_html,
    render_text,
)

__all__ = [
    "AttributionSummary",
    "BenchMetric",
    "BenchReport",
    "CompareResult",
    "DEFAULT_WINDOW_NS",
    "ExperimentProfile",
    "HostProfiler",
    "KernelEventRecorder",
    "LittlesLawCheck",
    "MetricDelta",
    "MetricsRegistry",
    "MultiTracer",
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
    "combine",
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
    "validate_speedscope",
    "validate_timeseries",
    "verify_attribution",
    "write_bench",
    "write_perfetto",
    "write_spanlog",
    "write_speedscope",
    "write_timeseries",
]
