"""Determinism harness: run a workload twice, diff the event traces.

The entire reproduction depends on the DES kernel being a pure
function of its inputs: same workload, same seed, same trace.  Silent
nondeterminism — iteration over an unordered set, an unseeded RNG, a
timestamp tie broken by object identity — corrupts every comparison
between two simulation runs (and makes bug reports unreproducible).

:func:`assert_deterministic` is the programmatic entry point; the
``@pytest.mark.determinism`` marker (see
:mod:`repro.analysis.pytest_plugin`) applies the same check to an
ordinary test function by running it twice and comparing the traces
the kernel emitted.

Tracing is cooperative: :func:`capture_trace` adds a
:class:`~repro.sim.observer.TraceFeed` to the ambient kernel scope, and
every simulator *constructed inside the context* appends ``(timestamp,
event label)`` to the sink as it processes events.  The scope is a
context variable, so concurrent or nested captures never clobber each
other (the seed's class-level ``Simulator._trace_sink`` did), and a
capture leaves the ambient tracer alone: under the null tracer the
captured run takes the untraced device paths a production run takes,
while the kernel takes its observed drain to see each dispatch.
"""

from __future__ import annotations

import contextlib
import typing

from repro.sim.observer import TraceEntry, TraceFeed, observing


class DeterminismError(AssertionError):
    """Two runs of the same workload produced different event traces."""


@contextlib.contextmanager
def capture_trace() -> typing.Iterator[typing.List[TraceEntry]]:
    """Context manager: collect every event any simulator processes.

    Simulators must be constructed inside the context (every workload
    under test builds its own).  An enclosing capture, sanitizer or
    tracer keeps observing the same simulators.
    """
    sink: typing.List[TraceEntry] = []
    with observing(TraceFeed(sink)):
        yield sink


def trace_of(workload: typing.Callable[[], object]
             ) -> typing.List[TraceEntry]:
    """Run ``workload`` and return the event trace it produced."""
    with capture_trace() as sink:
        workload()
    return sink


def diff_traces(first: typing.Sequence[TraceEntry],
                second: typing.Sequence[TraceEntry]
                ) -> str | None:
    """Human-readable description of the first divergence, or None."""
    for index, (a, b) in enumerate(zip(first, second)):
        if a != b:
            return (
                f"traces diverge at event {index}: "
                f"run 1 processed {a!r}, run 2 processed {b!r}"
            )
    if len(first) != len(second):
        shorter, longer = (("1", "2") if len(first) < len(second)
                           else ("2", "1"))
        return (
            f"run {shorter} processed {min(len(first), len(second))} "
            f"events but run {longer} processed "
            f"{max(len(first), len(second))}"
        )
    return None


def assert_deterministic(workload: typing.Callable[[], object],
                         runs: int = 2) -> typing.List[TraceEntry]:
    """Run ``workload`` ``runs`` times; raise on any trace divergence.

    ``workload`` must be self-contained: each call should build its own
    :class:`~repro.sim.engine.Simulator` and drive it to completion.
    Returns the (common) trace for further inspection.
    """
    if runs < 2:
        raise ValueError(f"need at least 2 runs to compare, got {runs}")
    reference = trace_of(workload)
    for attempt in range(1, runs):
        candidate = trace_of(workload)
        problem = diff_traces(reference, candidate)
        if problem is not None:
            raise DeterminismError(
                f"workload is nondeterministic (run {attempt + 1}): "
                f"{problem}"
            )
    return reference
