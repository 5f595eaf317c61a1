#!/usr/bin/env python
"""Capture a Perfetto trace and a metrics summary from a traced run.

Installs an ambient :class:`repro.telemetry.Telemetry` session, drives
four reads at four different partitions of one PRAM module under the
interleaving scheduler (the Figure 12 scenario), then exports:

* ``trace_capture.json``  — open at https://ui.perfetto.dev: one
  "thread" per hardware lane (channel bus, each partition, in-flight
  requests).  Look for a ``read_burst`` slice on ``ch0.bus`` running
  *during* another partition's ``activate`` slice — that concurrency
  is the latency the interleaving scheduler hides.
* ``trace_capture.jsonl`` — JSON-lines span log; the ``command`` lines
  are the LPDDR2-NVM command records the channel controller issued,
  each naming its run's scope (``trace-capture``).  The example replays
  them through the ``repro.analysis`` conformance checker, as
  ``python -m repro.analysis --trace trace_capture.jsonl`` does.
* a metrics summary table on stdout (phase skips, buffer hits,
  scheduler overlap).

Run:  python examples/trace_capture.py
"""

from repro.analysis import check_trace
from repro.controller import MemoryRequest, Op, PramSubsystem, SchedulerPolicy
from repro.pram import PramGeometry
from repro.sim import Simulator
from repro.telemetry import Telemetry

#: One channel, one module, four partitions — small enough that the
#: exported trace is readable slice by slice.
GEOMETRY = PramGeometry(channels=1, modules_per_channel=1,
                        partitions_per_bank=4, tiles_per_partition=1,
                        bitlines_per_tile=512, wordlines_per_tile=512)


def main() -> None:
    telemetry = Telemetry()
    with telemetry.activate():
        # Components bind the ambient tracer/metrics at construction,
        # so everything built here is traced end to end.
        sim = Simulator()
        subsystem = PramSubsystem(sim, geometry=GEOMETRY,
                                  policy=SchedulerPolicy.INTERLEAVING)
        stride = GEOMETRY.row_bytes
        requests = [
            MemoryRequest(Op.READ, i * stride, GEOMETRY.row_bytes)
            for i in range(4)
        ]

        def driver():
            pending = [sim.process(subsystem.submit(r)) for r in requests]
            yield sim.all_of(pending)
            # Read the same rows again: every row is still latched in
            # its partition's RDB, so both array phases are skipped.
            again = [sim.process(subsystem.submit(
                MemoryRequest(Op.READ, i * stride, GEOMETRY.row_bytes)))
                for i in range(4)]
            yield sim.all_of(again)

        proc = sim.process(driver())
        with telemetry.tracer.scope("trace-capture"):
            sim.run()
        assert proc.ok, proc.value

    telemetry.write_trace("trace_capture.json")
    telemetry.write_spanlog("trace_capture.jsonl")
    channel = subsystem.channels[0]
    commands = telemetry.tracer.commands
    print(f"captured {len(telemetry.tracer.spans)} spans, "
          f"{len(commands)} protocol commands, "
          f"{len(check_trace(commands))} protocol violation(s)")
    print(f"burst/array overlap: {channel.overlap_ns:.1f} ns "
          f"(latency the interleaving scheduler hid)")
    print(f"RDB hits on the re-read wave: {channel.rdb_hits}")
    print()
    print(telemetry.summary("pram.*"))
    print()
    print("open trace_capture.json at https://ui.perfetto.dev")


if __name__ == "__main__":
    main()
