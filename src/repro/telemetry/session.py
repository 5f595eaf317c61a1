"""One simulated-time observation session: spans, metrics, time series.

The experiments CLI (``--observe DIR``), the cell runner and the
examples use this instead of wiring the pieces by hand::

    telemetry = Telemetry()
    with telemetry.activate():
        run_experiment()
    telemetry.write_trace("trace.json")     # open in ui.perfetto.dev
    telemetry.write_spanlog("spans.jsonl")  # feed to repro.analysis
    print(telemetry.summary())              # terminal metrics table

A session always holds all three: a recording tracer, a metrics
registry and a sampler that closes :data:`DEFAULT_WINDOW_NS` windows
into the registry.  The cell runner gives each cell a session of its
own and folds it into the ambient tracer and registry with their
``merge`` methods.
"""

from __future__ import annotations

import contextlib
import typing

from repro.sim.sampling import use_sampling
from repro.telemetry.export import write_perfetto, write_spanlog
from repro.telemetry.metrics import MetricsRegistry, use_metrics
from repro.telemetry.timeseries import (
    SamplingConfig,
    export_document,
    write_timeseries,
)
from repro.telemetry.tracer import RecordingTracer, use_tracer


class Telemetry:
    """A recording tracer, a metrics registry and a sampler, activated
    together."""

    def __init__(self) -> None:
        self.tracer = RecordingTracer()
        self.metrics = MetricsRegistry()
        self.sampling = SamplingConfig()

    @contextlib.contextmanager
    def activate(self) -> typing.Iterator["Telemetry"]:
        """Install all three as the ambient tracer, registry and
        sampling provider for the body: simulators built inside it
        record spans and sample windowed series into the registry."""
        with use_tracer(self.tracer), use_metrics(self.metrics), \
                use_sampling(self.sampling):
            yield self

    # -- export ---------------------------------------------------------
    def write_trace(self, path: str) -> None:
        """Perfetto/Chrome JSON (load at ui.perfetto.dev)."""
        write_perfetto(self.tracer, path)

    def write_spanlog(self, path: str) -> None:
        """JSON-lines span log (spans, instants, protocol commands)."""
        write_spanlog(self.tracer, path)

    def timeseries_document(self) -> typing.Dict[str, typing.Any]:
        """The registry's series/sketches as an exportable document."""
        return export_document(self.metrics, self.sampling.window_ns)

    def write_timeseries(self, path: str) -> None:
        """Export sampled series + sketches as JSON."""
        write_timeseries(path, self.timeseries_document())

    def summary(self, pattern: str = "*") -> str:
        """Terminal metrics table (fnmatch ``pattern`` filters paths)."""
        return self.metrics.summary_table(pattern)
