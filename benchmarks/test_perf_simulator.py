"""Simulator-performance benchmarks (wall-clock, not simulated time).

These measure the discrete-event kernel itself — useful for spotting
regressions in the engine that every experiment's runtime depends on.
"""

import time

from repro.controller import MemoryRequest, Op, PramSubsystem
from repro.sim import Simulator
from repro.sim.hostprof import use_hostprof
from repro.telemetry.hostprof import (
    HostProfiler,
    speedscope_document,
    validate_speedscope,
)


def drive_read_stream(requests: int = 512) -> float:
    """Simulate a closed read stream; returns the simulated end time."""
    sim = Simulator()
    subsystem = PramSubsystem(sim)
    stream = [
        MemoryRequest(Op.READ, (index * 512) % (1 << 20), 512)
        for index in range(requests)
    ]
    subsystem.run_stream(stream, mode="closed")
    return sim.now


def test_perf_subsystem_read_stream(benchmark, bench_record):
    simulated_ns = benchmark(drive_read_stream)
    assert simulated_ns > 0
    # Simulated (not wall-clock) completion time: deterministic, so a
    # movement across commits is a real change in the modeled memory
    # subsystem, not host noise.
    bench_record("perf.read_stream_simulated_ns", simulated_ns,
                 better="lower", unit="ns")


def test_perf_hostprof_attribution(bench_record):
    """The profiler's buckets must tile measured ``run()`` wall clock.

    The attribution model is a continuous timeline — dispatch segments
    plus the kernel gaps between them — so the bucket sum should cover
    at least 95% of an external stopwatch around the same drains
    (the remainder is the hook's own clock reads).  Also gates the
    speedscope export's structural validity and feeds the advisory
    ``host_ns.*`` aggregates into the BENCH trajectory.
    """
    profiler = HostProfiler()
    with use_hostprof(profiler):
        sim = Simulator()
        subsystem = PramSubsystem(sim)

        def driver():
            for index in range(512):
                request = MemoryRequest(Op.READ,
                                        (index * 512) % (1 << 20), 512)
                yield sim.process(subsystem.submit(request))

        sim.process(driver())
        start = time.perf_counter_ns()
        sim.run()
        measured_ns = time.perf_counter_ns() - start
    fraction = profiler.attributed_fraction(measured_ns)
    assert fraction >= 0.95, (
        f"only {fraction:.1%} of {measured_ns} ns of run() wall clock "
        "attributed to named buckets")
    # Every bucket carries a real (component, ..., kind) name.
    assert all(all(field for field in key) for key in profiler.buckets)
    document = speedscope_document(profiler)
    assert validate_speedscope(document) == []
    for name, metric in profiler.bench_metrics().items():
        bench_record(name, metric.value, better=metric.better,
                     unit=metric.unit)
    bench_record("hostprof.attributed_fraction", fraction,
                 better="higher", unit="ratio")


def test_perf_event_kernel(benchmark):
    """Raw kernel throughput: ping-pong between two processes."""

    def ping_pong(rounds: int = 5_000) -> float:
        sim = Simulator()

        def pinger():
            for _ in range(rounds):
                yield sim.timeout(1.0)

        sim.process(pinger())
        sim.run()
        return sim.now

    assert benchmark(ping_pong) == 5_000.0
