"""Tracer unit tests: null default, recording, scoping, combination."""

import pytest

from repro.sim import Simulator
from repro.telemetry import (
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


class TestNullTracer:
    def test_disabled_by_default(self):
        assert NULL_TRACER.enabled is False
        assert current_tracer() is NULL_TRACER

    def test_hooks_are_noops(self):
        NULL_TRACER.emit("x", "t", 0.0, 1.0, foo=1)
        NULL_TRACER.instant("x", "t", 0.0)
        NULL_TRACER.kernel_event(0.0, "x")
        NULL_TRACER.command(object())

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
        # under it attaches no kernel-event feed (KernelEventRecorder
        # is the tracer that takes them).
        tracer = RecordingTracer()
        tracer.kernel_event(1.0, "Timeout")
        assert not hasattr(tracer, "kernel_events")
        with use_tracer(tracer):
            sim = Simulator()
        assert sim._observer is None
        sink = []
        with use_tracer(KernelEventRecorder(sink)):
            fed = Simulator()
        assert fed._observer is not None

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


class TestKernelEventRecorder:
    def test_records_seed_trace_format(self):
        sink = []
        recorder = KernelEventRecorder(sink)
        assert recorder.enabled
        recorder.kernel_event(5.0, "Timeout:worker")
        recorder.emit("ignored", "t", 0.0, 1.0)  # spans are dropped
        assert sink == [(5.0, "Timeout:worker")]


class TestCombine:
    def test_nothing_active_gives_null(self):
        assert combine() is NULL_TRACER
        assert combine(None, NULL_TRACER) is NULL_TRACER

    def test_single_active_passes_through(self):
        tracer = RecordingTracer()
        assert combine(None, tracer) is tracer

    def test_duplicates_collapse(self):
        tracer = RecordingTracer()
        assert combine(tracer, tracer) is tracer

    def test_two_active_fan_out(self):
        left, right = RecordingTracer(), RecordingTracer()
        multi = combine(left, right)
        assert isinstance(multi, MultiTracer)
        multi.emit("a", "t", 0.0, 1.0)
        multi.instant("b", "t", 1.0)
        multi.command("rec")
        assert len(left.spans) == len(right.spans) == 1
        assert len(left.instants) == len(right.instants) == 1
        assert left.commands == right.commands == ["rec"]

    def test_multi_scope_enters_all(self):
        left, right = RecordingTracer(), RecordingTracer()
        multi = combine(left, right)
        with multi.scope("run"):
            multi.emit("a", "t", 0.0, 1.0)
        assert left.spans[0].scope == "run"
        assert right.spans[0].scope == "run"

    def test_multi_of_disabled_children_is_disabled(self):
        assert not MultiTracer([NULL_TRACER]).enabled
        assert not MultiTracer([NULL_TRACER, NULL_TRACER]).enabled
        assert MultiTracer([NULL_TRACER, RecordingTracer()]).enabled

    def test_all_null_multi_short_circuits_to_null(self):
        # A MultiTracer wrapping only disabled tracers must not defeat
        # the `tracer.enabled` fast path on the hot emit sites.
        assert combine(MultiTracer([NULL_TRACER]), None) is NULL_TRACER

    def test_multi_with_one_live_child_unwraps(self):
        recording = RecordingTracer()
        multi = MultiTracer([recording, NULL_TRACER])
        assert combine(multi, None) is recording

    def test_nested_multi_flattens(self):
        left, right, third = (RecordingTracer(), RecordingTracer(),
                              RecordingTracer())
        flattened = combine(MultiTracer([left, right]), third)
        assert isinstance(flattened, MultiTracer)
        assert set(flattened.tracers) == {left, right, third}
        for tracer in flattened.tracers:
            assert not isinstance(tracer, MultiTracer)


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

    def test_explicit_and_ambient_combine(self):
        # A second tracer joins the ambient one by combining with it,
        # as capture_trace does; the simulator reads the result.
        explicit, ambient = RecordingTracer(), RecordingTracer()
        with use_tracer(ambient), \
                use_tracer(combine(explicit, current_tracer())):
            sim = Simulator()
        assert isinstance(sim.tracer, MultiTracer)
        assert set(sim.tracer.tracers) == {explicit, ambient}


def _recording_simulator():
    """A simulator under a kernel-event recorder, and the recorder."""
    recorder = KernelEventRecorder([])
    with use_tracer(recorder):
        return Simulator(), recorder


class TestKernelEventLabels:
    def test_anonymous_event_labeled_with_owning_process(self):
        sim, tracer = _recording_simulator()
        gate = sim.event()  # anonymous: label degrades to the waiter

        def opener():
            yield sim.timeout(1.0)
            gate.succeed()

        def waiter():
            yield gate

        sim.process(opener(), name="opener")
        sim.process(waiter(), name="waiter")
        sim.run()
        labels = [label for _, label in tracer.sink]
        assert "Event:waiter" in labels

    def test_named_events_keep_their_name(self):
        sim, tracer = _recording_simulator()
        done = sim.event("custom.done")

        def worker():
            yield sim.timeout(1.0)
            done.succeed()

        def waiter():
            yield done

        sim.process(worker(), name="w")
        sim.process(waiter(), name="v")
        sim.run()
        labels = [label for _, label in tracer.sink]
        assert "custom.done" in labels

    def test_timestamps_match_simulated_time(self):
        sim, tracer = _recording_simulator()

        def worker():
            yield sim.timeout(7.5)

        sim.process(worker(), name="w")
        sim.run()
        assert any(ts == pytest.approx(7.5)
                   for ts, _ in tracer.sink)
