"""Compiled-backend identity and fallback coverage.

Two obligations gate the second execution backend:

* **Byte identity** — for any homogeneous stream inside the certified
  envelope, the compiled kernel must leave every observable (request
  statuses and times, channel counters, latency-sketch payloads, module
  state, ``sim.now``) exactly as the interpreted engine would — on the
  numpy tier *and* the pure-stdlib tier.  Property-tested over random
  streams.
* **Honest fallbacks** — every unsupported configuration or stream
  shape must fall back to the interpreted engine with a recorded
  reason, never silently produce compiled results outside the envelope.
  Covered per reason, subsystem-level and stream-level.
"""

import contextlib
import os

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.analysis.conformance import ProtocolChecker
from repro.controller import (
    FirmwareModel,
    MemoryRequest,
    Op,
    PramSubsystem,
    SchedulerPolicy,
)
from repro.controller.request import reset_request_ids
from repro.faults.plan import FaultConfig
from repro.sim import (
    KernelSanitizer,
    KernelScope,
    Simulator,
    backend_decisions,
    clear_backend_decisions,
    use_backend,
    use_sampling,
)
from repro.sim.compiled import (
    stream_fallback_reasons,
    subsystem_fallback_reasons,
)
from repro.sim.hostprof import use_hostprof
from repro.telemetry.hostprof import HostProfiler
from repro.telemetry.metrics import MetricsRegistry, use_metrics
from repro.telemetry.timeseries import SamplingConfig
from repro.telemetry.tracer import RecordingTracer


# ----------------------------------------------------------------------
# Byte identity
# ----------------------------------------------------------------------
def _sketch(sketch):
    # The full serialized form, not just the buckets: the BENCH
    # percentiles read every one of these fields.
    return repr(sketch.to_payload())


def _snapshot(sim, subsystem, requests):
    """Every observable a run can touch, as comparable plain data."""
    state = {
        "now": sim.now,
        "completed": subsystem.requests_completed,
        "requests": [(r.submit_time, r.complete_time, r.status.value,
                      r.result) for r in requests],
        "sketches": {op: _sketch(s)
                     for op, s in subsystem.latency_sketches.items()},
    }
    for ci, channel in enumerate(subsystem.channels):
        state[f"ch{ci}"] = (
            tuple(channel.read_latency.samples),
            tuple(channel.write_latency.samples),
            _sketch(channel.read_sketch),
            _sketch(channel.write_sketch),
            channel.bus_busy_ns,
            channel.chunks_read,
            channel.chunks_written,
            dict(channel.phase_skips),
            channel.rab_hits,
            channel.rdb_hits,
            channel.overlap_ns,
            channel.phy.packets_sent,
        )
        for mi, module in enumerate(channel.modules):
            state[f"ch{ci}.m{mi}"] = (
                module.reads,
                module.programs,
                list(module._partition_busy_until),
                [(pair.upper_row, pair.rab_valid, pair.partition,
                  pair.row, pair.rdb_valid, pair.last_use, pair.data)
                 for pair in module.buffers._pairs],
                sorted(module._storage),
            )
    return state


def _run_stream(op, size, addresses, mode, backend):
    reset_request_ids()
    sim = Simulator()
    subsystem = PramSubsystem(sim)
    requests = [
        MemoryRequest(op, address, size,
                      data=(bytes((index + offset) % 251
                                  for offset in range(size))
                            if op is Op.WRITE else None))
        for index, address in enumerate(addresses)
    ]
    decision = subsystem.run_stream(requests, mode=mode, backend=backend)
    return _snapshot(sim, subsystem, requests), decision


@st.composite
def homogeneous_streams(draw):
    op = draw(st.sampled_from([Op.READ, Op.WRITE]))
    size = draw(st.sampled_from([32, 64, 96, 128, 512]))
    count = draw(st.integers(min_value=1, max_value=6))
    addresses = draw(st.lists(st.integers(0, 1 << 16),
                              min_size=count, max_size=count))
    mode = draw(st.sampled_from(["open", "closed"]))
    return op, size, addresses, mode


@given(homogeneous_streams())
# Regression: unaligned closed writes straddle a row boundary, and the
# straddling chunk lands on the module still programming the previous
# request — its latency sample must land in completion order, not
# chunk order, or the order-sensitive accumulators diverge.
@example((Op.WRITE, 32, [0, 1], "closed"))
@settings(max_examples=30, deadline=None)
def test_compiled_matches_interpreted(stream):
    """Three-way identity: interpreted == compiled-numpy == compiled-stdlib.

    The fallback path keeps the property trivially true for ineligible
    draws (same engine runs), so eligible shapes — closed uniform reads
    under the default config are always inside the envelope — also
    assert the kernel actually engaged, pinning real coverage.
    """
    op, size, addresses, mode = stream
    interpreted, _ = _run_stream(op, size, addresses, mode, "interpreted")
    saved = os.environ.pop("REPRO_NO_NUMPY", None)
    try:
        numpy_state, decision = _run_stream(op, size, addresses, mode,
                                            "compiled")
        os.environ["REPRO_NO_NUMPY"] = "1"
        stdlib_state, stdlib_decision = _run_stream(
            op, size, addresses, mode, "compiled")
    finally:
        if saved is None:
            os.environ.pop("REPRO_NO_NUMPY", None)
        else:
            os.environ["REPRO_NO_NUMPY"] = saved
    assert numpy_state == interpreted
    assert stdlib_state == interpreted
    assert stdlib_decision.used == decision.used
    if op is Op.READ and mode == "closed":
        assert decision.compiled, decision.reasons


# ----------------------------------------------------------------------
# Subsystem-level fallback reasons
# ----------------------------------------------------------------------
def _expect_subsystem_reason(subsystem, fragment):
    reasons = subsystem_fallback_reasons(subsystem)
    assert any(fragment in reason for reason in reasons), reasons


def test_fallback_uncertified_scheduler():
    subsystem = PramSubsystem(Simulator(),
                              policy=SchedulerPolicy.SELECTIVE_ERASE)
    _expect_subsystem_reason(subsystem, "not certified")


def test_fallback_firmware():
    sim = Simulator()
    subsystem = PramSubsystem(sim, firmware=FirmwareModel(sim))
    _expect_subsystem_reason(subsystem, "firmware model attached")


def test_fallback_fault_plan():
    subsystem = PramSubsystem(
        Simulator(), faults=FaultConfig.parse("seed=7,read_flip=0.001"))
    _expect_subsystem_reason(subsystem, "fault plan attached")


def test_fallback_protocol_monitor():
    subsystem = PramSubsystem(Simulator(),
                              monitor=ProtocolChecker(record=True))
    _expect_subsystem_reason(subsystem, "protocol monitor attached")


def test_fallback_wear_leveling():
    subsystem = PramSubsystem(Simulator(), wear_leveling=True)
    _expect_subsystem_reason(subsystem, "wear leveling enabled")


def test_fallback_write_pausing():
    subsystem = PramSubsystem(Simulator(), write_pausing=True)
    _expect_subsystem_reason(subsystem, "write pausing enabled")


#: The five ways to attach a kernel observer: each builds a simulator.
OBSERVED_SIMULATORS = {
    "tracer": lambda: Simulator(tracer=RecordingTracer()),
    "sanitizer": lambda: Simulator(
        scope=KernelScope(sanitizer=KernelSanitizer())),
    "tiebreak": lambda: Simulator(scope=KernelScope(tiebreak_seed=7)),
    "sampler": lambda: _built_under(
        use_metrics(MetricsRegistry()), use_sampling(SamplingConfig())),
    "hostprof": lambda: _built_under(use_hostprof(HostProfiler())),
}


def _built_under(*scopes):
    with contextlib.ExitStack() as stack:
        for scope in scopes:
            stack.enter_context(scope)
        return Simulator()


@pytest.mark.parametrize("observer", sorted(OBSERVED_SIMULATORS))
def test_fallback_kernel_observer(observer):
    subsystem = PramSubsystem(OBSERVED_SIMULATORS[observer]())
    _expect_subsystem_reason(subsystem, "kernel observer attached")


def test_frozen_default_config_has_no_subsystem_reasons():
    assert subsystem_fallback_reasons(PramSubsystem(Simulator())) == []


# ----------------------------------------------------------------------
# Stream-level fallback reasons
# ----------------------------------------------------------------------
def _expect_stream_reason(requests, mode, fragment, subsystem=None):
    subsystem = subsystem or PramSubsystem(Simulator())
    reasons = stream_fallback_reasons(subsystem, requests, mode)
    assert any(fragment in reason for reason in reasons), reasons


def test_fallback_mixed_operations():
    _expect_stream_reason(
        [MemoryRequest(Op.READ, 0, 32),
         MemoryRequest(Op.WRITE, 512, 32, data=bytes(32))],
        "closed", "mixed-operation stream")


def test_fallback_mixed_sizes():
    _expect_stream_reason(
        [MemoryRequest(Op.READ, 0, 32), MemoryRequest(Op.READ, 512, 64)],
        "closed", "mixed request sizes")


def test_fallback_completion_event():
    sim = Simulator()
    subsystem = PramSubsystem(sim)
    _expect_stream_reason(
        [MemoryRequest(Op.READ, 0, 32, done=sim.event())],
        "closed", "completion event", subsystem=subsystem)


def test_fallback_open_write_stream():
    _expect_stream_reason(
        [MemoryRequest(Op.WRITE, 0, 32, data=bytes(32))],
        "open", "open-loop write stream")


def test_fallback_write_module_reuse():
    # 2048 B = 64 chunks > the 32-position (module, channel) rotation:
    # some module sees this write twice, which serializes on the RAB.
    _expect_stream_reason(
        [MemoryRequest(Op.WRITE, 0, 2048, data=bytes(2048))],
        "closed", "re-uses a module")


def test_fallback_read_concurrency_excess():
    # 8192 B = 256 chunks > 4 buffer pairs x 32 rotation positions.
    _expect_stream_reason([MemoryRequest(Op.READ, 0, 8192)],
                          "closed", "buffer pairs")


def test_fallback_pooled_open_wave_excess():
    # Open interleaved reads pool into one wave: 8 requests x 16 chunks
    # on the same positions exceed the 4 pairs even though each request
    # alone is fine.
    requests = [MemoryRequest(Op.READ, index * (1 << 14), 512)
                for index in range(8)]
    _expect_stream_reason(requests, "open", "buffer pairs")


def test_fallback_multi_channel_under_metrics():
    with use_metrics(MetricsRegistry()):
        subsystem = PramSubsystem(Simulator())
    # 1024 B spans both channels' module blocks; the shared overlap
    # counter would accumulate in a different float order.
    _expect_stream_reason([MemoryRequest(Op.READ, 0, 1024)],
                          "closed", "metrics registry",
                          subsystem=subsystem)


def test_eligible_stream_has_no_reasons():
    subsystem = PramSubsystem(Simulator())
    requests = [MemoryRequest(Op.READ, index * 512, 512)
                for index in range(4)]
    assert stream_fallback_reasons(subsystem, requests, "closed") == []


# ----------------------------------------------------------------------
# Decision recording
# ----------------------------------------------------------------------
def test_fallback_decision_recorded_end_to_end():
    clear_backend_decisions()
    sim = Simulator()
    subsystem = PramSubsystem(sim,
                              policy=SchedulerPolicy.SELECTIVE_ERASE)
    with use_backend("compiled"):
        decision = subsystem.run_stream([MemoryRequest(Op.READ, 0, 32)],
                                        mode="closed")
    assert decision.requested == "compiled"
    assert decision.used == "interpreted"
    assert decision.reasons
    assert backend_decisions()[-1] == decision
    clear_backend_decisions()
