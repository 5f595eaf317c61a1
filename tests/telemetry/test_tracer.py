"""Tracer unit tests: null default, recording, scoping; kernel-event
labels."""

import pytest

from repro.analysis.determinism import capture_trace
from repro.pram.commands import Command, CommandRecord
from repro.sim import Simulator
from repro.telemetry import (
    NULL_TRACER,
    RecordingTracer,
    Span,
    Tracer,
    current_tracer,
    use_tracer,
)


class TestNullTracer:
    def test_disabled_by_default(self):
        assert NULL_TRACER.enabled is False
        assert current_tracer() is NULL_TRACER

    def test_hooks_are_noops(self):
        NULL_TRACER.emit("x", "t", 0.0, 1.0, foo=1)
        NULL_TRACER.instant("x", "t", 0.0)
        NULL_TRACER.command(CommandRecord(
            time=0.0, channel=0, module=0, command=Command.PRE_ACTIVE))

    def test_scope_allocates_nothing(self):
        # The null scope is one shared context manager, not a fresh
        # object per call — hot loops can enter scopes for free.
        assert NULL_TRACER.scope("a") is NULL_TRACER.scope("b")
        with NULL_TRACER.scope("a"):
            pass

    def test_base_class_methods_not_overridden_elsewhere(self):
        # Every hot path guards on `.enabled`; the base hooks return
        # None without constructing spans.
        assert Tracer.emit(NULL_TRACER, "x", "t", 0.0, 1.0) is None

    def test_simulator_defaults_to_null_tracer(self):
        sim = Simulator()
        assert sim.tracer is NULL_TRACER


class TestRecordingTracer:
    def test_emit_records_span(self):
        tracer = RecordingTracer()
        tracer.emit("burst", "ch0.bus", 10.0, 25.0, row=3)
        (span,) = tracer.spans
        assert span.name == "burst"
        assert span.track == "ch0.bus"
        assert span.start_ns == 10.0
        assert span.end_ns == 25.0
        assert span.args == {"row": 3}
        assert span.span_id == 1

    def test_span_ids_are_unique_and_increasing(self):
        tracer = RecordingTracer()
        tracer.emit("a", "t", 0.0, 1.0)
        tracer.instant("b", "t", 2.0)
        tracer.emit("c", "t", 3.0, 4.0)
        ids = [tracer.spans[0].span_id, tracer.instants[0].span_id,
               tracer.spans[1].span_id]
        assert ids == sorted(ids)
        assert len(set(ids)) == 3

    def test_scopes_nest_with_slashes(self):
        tracer = RecordingTracer()
        with tracer.scope("outer"):
            tracer.emit("a", "t", 0.0, 1.0)
            with tracer.scope("inner"):
                tracer.emit("b", "t", 1.0, 2.0)
            tracer.emit("c", "t", 2.0, 3.0)
        tracer.emit("d", "t", 3.0, 4.0)
        assert [s.scope for s in tracer.spans] == [
            "outer", "outer/inner", "outer", ""]

    def test_kernel_events_off_by_default(self):
        # A span recorder keeps no kernel events, so a simulator built
        # under it attaches no observer; the kernel-event trace is
        # capture_trace's, and only a simulator built under it is fed.
        tracer = RecordingTracer()
        assert not hasattr(tracer, "kernel_event")
        with use_tracer(tracer):
            sim = Simulator()
        assert sim._observer is None
        with use_tracer(tracer), capture_trace():
            fed = Simulator()
        assert fed._observer is not None
        assert fed.tracer is tracer

    def test_len_counts_spans_and_instants(self):
        tracer = RecordingTracer()
        tracer.emit("a", "t", 0.0, 1.0)
        tracer.instant("b", "t", 1.0)
        assert len(tracer) == 2

    def test_span_to_dict_round_trip(self):
        span = Span(name="a", track="t", start_ns=1.0, end_ns=2.0,
                    scope="s", asynchronous=True, span_id=7,
                    args={"k": 1})
        assert Span(**span.to_dict()) == span


class TestAmbientTracer:
    def test_use_tracer_scopes_installation(self):
        tracer = RecordingTracer()
        assert current_tracer() is NULL_TRACER
        with use_tracer(tracer):
            assert current_tracer() is tracer
        assert current_tracer() is NULL_TRACER

    def test_nested_use_restores_outer(self):
        outer, inner = RecordingTracer(), RecordingTracer()
        with use_tracer(outer):
            with use_tracer(inner):
                assert current_tracer() is inner
            assert current_tracer() is outer

    def test_simulator_binds_ambient_at_construction(self):
        tracer = RecordingTracer()
        with use_tracer(tracer):
            sim = Simulator()
        assert sim.tracer is tracer
        # Construction outside the scope is unaffected.
        assert Simulator().tracer is NULL_TRACER


def _recording_simulator():
    """A simulator built under a trace capture, and the captured
    entries."""
    with capture_trace() as sink:
        return Simulator(), sink


class TestKernelEventLabels:
    def test_anonymous_event_labeled_with_owning_process(self):
        sim, trace = _recording_simulator()
        gate = sim.event()  # anonymous: label degrades to the waiter

        def opener():
            yield sim.timeout(1.0)
            gate.succeed()

        def waiter():
            yield gate

        sim.process(opener(), name="opener")
        sim.process(waiter(), name="waiter")
        sim.run()
        labels = [label for _, label in trace]
        assert "Event:waiter" in labels

    def test_named_events_keep_their_name(self):
        sim, trace = _recording_simulator()
        done = sim.event("custom.done")

        def worker():
            yield sim.timeout(1.0)
            done.succeed()

        def waiter():
            yield done

        sim.process(worker(), name="w")
        sim.process(waiter(), name="v")
        sim.run()
        labels = [label for _, label in trace]
        assert "custom.done" in labels

    def test_timestamps_match_simulated_time(self):
        sim, trace = _recording_simulator()

        def worker():
            yield sim.timeout(7.5)

        sim.process(worker(), name="w")
        sim.run()
        assert any(ts == pytest.approx(7.5)
                   for ts, _ in trace)
