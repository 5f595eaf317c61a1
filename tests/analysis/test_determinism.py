"""Determinism harness: identical runs pass, divergent runs fail."""

import random

import pytest

from repro.analysis.determinism import (
    DeterminismError,
    assert_deterministic,
    capture_trace,
    diff_traces,
    trace_of,
)
from repro.controller import PramSubsystem
from repro.sim import Simulator
from repro.telemetry import NULL_TRACER, current_tracer


def subsystem_workload():
    sim = Simulator()
    subsystem = PramSubsystem(sim)
    payload = bytes((i * 37 + (i >> 8) * 11) % 256 for i in range(2048))

    def driver():
        yield from subsystem.write(0, payload)
        data = yield from subsystem.read(0, len(payload))
        assert data == payload

    sim.process(driver())
    sim.run()


def nondeterministic_workload():
    sim = Simulator()

    def jitter():
        # Unseeded module-level RNG: each run draws different delays.
        yield sim.timeout(random.random() * 100.0 + 1.0)  # noqa: SIM001

    sim.process(jitter(), name="jitter")
    sim.run()


def test_real_subsystem_workload_is_deterministic():
    trace = assert_deterministic(subsystem_workload)
    assert trace, "workload produced no events"


def test_unseeded_randomness_is_caught():
    with pytest.raises(DeterminismError, match="nondeterministic"):
        assert_deterministic(nondeterministic_workload, runs=5)


def test_assert_deterministic_needs_two_runs():
    with pytest.raises(ValueError):
        assert_deterministic(subsystem_workload, runs=1)


def test_capture_trace_is_scoped():
    with capture_trace() as sink:
        subsystem_workload()
    assert sink
    assert current_tracer() is NULL_TRACER
    before = len(sink)
    subsystem_workload()  # outside the context: not observed
    assert len(sink) == before


def test_captured_runs_take_the_untraced_device_paths():
    # A capture feeds the kernel, not the tracer: the ambient tracer
    # stays the null one, so the device models run the paths an
    # unobserved production run takes.
    with capture_trace():
        sim = Simulator()
        subsystem = PramSubsystem(sim)
        assert current_tracer() is NULL_TRACER
    assert sim.tracer is NULL_TRACER
    assert sim._observer is not None
    assert subsystem.channels
    assert not any(channel._telemetry_on for channel in subsystem.channels)


def test_nested_captures_do_not_clobber():
    # The seed's class-level sink made nested captures lose the outer
    # one; the ambient tracer restores it on exit and both observe.
    with capture_trace() as outer:
        with capture_trace() as inner:
            subsystem_workload()
        assert inner
        assert outer == inner  # outer tracer kept observing
        inner_len = len(inner)
        subsystem_workload()  # inner closed: only outer grows
        assert len(inner) == inner_len
        assert len(outer) == 2 * inner_len


def test_trace_entries_carry_time_and_label():
    trace = trace_of(subsystem_workload)
    times = [t for t, _ in trace]
    assert times == sorted(times)
    assert all(isinstance(label, str) and label for _, label in trace)


def test_diff_traces_reports_first_divergence():
    a = [(0.0, "alpha"), (1.0, "beta")]
    assert diff_traces(a, a) is None
    message = diff_traces(a, [(0.0, "alpha"), (2.0, "beta")])
    assert message is not None and "event 1" in message
    message = diff_traces(a, a + [(2.0, "gamma")])
    assert message is not None and "2 events" in message


@pytest.mark.determinism
def test_marker_reruns_and_compares():
    # The plugin runs this body twice and diffs the kernel traces.
    subsystem_workload()
