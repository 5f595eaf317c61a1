"""End-to-end telemetry over a real PRAM subsystem.

Checks that recorded spans line up with the LPDDR2-NVM three-phase
protocol, that a traced Fig. 12 run shows the burst/array overlap the
figure is about, and that tracing is observational (determinism holds
with a recording tracer installed).
"""

import pytest

from repro.controller import MemoryRequest, Op, PramSubsystem, SchedulerPolicy
from repro.pram import PramGeometry
from repro.sim import Simulator
from repro.telemetry import (
    Telemetry,
    perfetto_document,
    validate_perfetto,
)

GEOMETRY = PramGeometry(channels=1, modules_per_channel=1,
                        partitions_per_bank=4, tiles_per_partition=1,
                        bitlines_per_tile=512, wordlines_per_tile=512)


def _stride() -> int:
    return GEOMETRY.row_bytes


def _run_reads(telemetry: Telemetry, count: int = 4,
               policy: SchedulerPolicy = SchedulerPolicy.INTERLEAVING):
    with telemetry.activate():
        sim = Simulator()
        subsystem = PramSubsystem(sim, geometry=GEOMETRY, policy=policy)
        requests = [MemoryRequest(Op.READ, i * _stride(),
                                  GEOMETRY.row_bytes)
                    for i in range(count)]

        def driver():
            pending = [sim.process(subsystem.submit(r)) for r in requests]
            yield sim.all_of(pending)

        sim.process(driver())
        with telemetry.tracer.scope("test"):
            sim.run()
    return subsystem


class TestThreePhaseSpans:
    def test_cold_read_emits_all_three_phases(self):
        telemetry = Telemetry()
        _run_reads(telemetry, count=1)
        names = [s.name for s in telemetry.tracer.spans]
        for phase in ("cmd", "pre_active", "activate", "read_burst"):
            assert phase in names, f"missing {phase} span"

    def test_phases_nest_in_protocol_order(self):
        telemetry = Telemetry()
        _run_reads(telemetry, count=1)
        spans = {s.name: s for s in telemetry.tracer.spans}
        pre_active = spans["pre_active"]
        activate = spans["activate"]
        burst = spans["read_burst"]
        # pre-active latches the RAB, then activate senses into the
        # RDB, then the burst streams the RDB over the bus.
        assert pre_active.end_ns <= activate.start_ns
        assert activate.end_ns <= burst.start_ns
        # Array phases live on the partition track; the burst holds
        # the shared bus.
        assert pre_active.track == "ch0.m0.p0"
        assert activate.track == "ch0.m0.p0"
        assert burst.track == "ch0.bus"

    def test_array_phases_sit_inside_request_span(self):
        telemetry = Telemetry()
        _run_reads(telemetry, count=1)
        request = next(s for s in telemetry.tracer.spans
                       if s.track == "requests")
        assert request.asynchronous
        for span in telemetry.tracer.spans:
            if span.track.startswith("ch0.m0"):
                assert request.start_ns <= span.start_ns
                assert span.end_ns <= request.end_ns

    def test_commands_recorded_alongside_spans(self):
        telemetry = Telemetry()
        _run_reads(telemetry, count=1)
        commands = [c.command.value for c in telemetry.tracer.commands]
        assert "PRE-ACTIVE" in commands or "pre_active" in [
            c.lower().replace("-", "_") for c in commands]


class TestInterleavingOverlap:
    def test_burst_overlaps_other_partition_array_access(self):
        telemetry = Telemetry()
        subsystem = _run_reads(telemetry, count=4)
        channel = subsystem.channels[0]
        assert channel.overlap_ns > 0.0
        assert telemetry.metrics.counter(
            "sched.interleave.overlap_ns").value > 0.0

    def test_overlap_visible_in_perfetto_tracks(self):
        telemetry = Telemetry()
        _run_reads(telemetry, count=4)
        document = perfetto_document(telemetry.tracer)
        assert validate_perfetto(document) == []
        events = document["traceEvents"]
        bursts = [e for e in events
                  if e["ph"] == "X" and e["name"] == "read_burst"]
        arrays = [e for e in events
                  if e["ph"] == "X" and e["name"] in ("pre_active",
                                                      "activate")]
        overlapping = [
            (burst, array)
            for burst in bursts for array in arrays
            if array["tid"] != burst["tid"]
            and array["ts"] < burst["ts"] + burst["dur"]
            and burst["ts"] < array["ts"] + array["dur"]
        ]
        assert overlapping, (
            "no RDB burst overlapped another partition's array access")

    def test_phase_skip_counters_on_reread(self):
        telemetry = Telemetry()
        with telemetry.activate():
            sim = Simulator()
            subsystem = PramSubsystem(sim, geometry=GEOMETRY,
                                      policy=SchedulerPolicy.INTERLEAVING)
            requests = [MemoryRequest(Op.READ, 0, GEOMETRY.row_bytes)
                        for _ in range(2)]

            def driver():
                for request in requests:  # sequential: second RDB-hits
                    yield sim.process(subsystem.submit(request))

            sim.process(driver())
            sim.run()
        channel = subsystem.channels[0]
        assert channel.rdb_hits == 1
        snap = telemetry.metrics.snapshot("pram.ch0.phase_skip.*")
        assert snap["pram.ch0.phase_skip.pre_active"] >= 1
        assert snap["pram.ch0.phase_skip.activate"] >= 1


class TestObservationalPurity:
    @pytest.mark.determinism
    def test_traced_run_is_deterministic(self):
        telemetry = Telemetry()
        _run_reads(telemetry, count=4)

    def test_tracing_does_not_change_timing(self):
        untraced = Simulator()
        plain = PramSubsystem(untraced, geometry=GEOMETRY,
                              policy=SchedulerPolicy.INTERLEAVING)
        request = MemoryRequest(Op.READ, 0, GEOMETRY.row_bytes)
        untraced.process(plain.submit(request))
        untraced.run()
        plain_time = request.complete_time

        telemetry = Telemetry()
        subsystem = _run_reads(telemetry, count=1)
        del subsystem
        traced = next(s for s in telemetry.tracer.spans
                      if s.track == "requests")
        assert traced.end_ns == pytest.approx(plain_time)


class TestMetricsOnlySession:
    def test_use_metrics_alone_keeps_null_tracer(self):
        from repro.telemetry import (
            MetricsRegistry,
            current_metrics,
            current_tracer,
            use_metrics,
        )
        from repro.telemetry.tracer import NULL_TRACER

        registry = MetricsRegistry()
        with use_metrics(registry):
            # The metrics-only path must keep the zero-overhead tracer
            # so hot emit sites stay behind `tracer.enabled`.
            assert current_tracer() is NULL_TRACER
            assert current_metrics() is registry
            sim = Simulator()
            subsystem = PramSubsystem(sim, geometry=GEOMETRY)
            request = MemoryRequest(Op.READ, 0, GEOMETRY.row_bytes)
            sim.process(subsystem.submit(request))
            sim.run()
            assert not sim.tracer.enabled
        assert sim.tracer is NULL_TRACER
        assert registry.snapshot("pram.*")
