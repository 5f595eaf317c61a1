"""Three-phase addressing conformance: legal traces pass, illegal fail."""

import json

import pytest

from repro.analysis import __main__ as analysis_main
from repro.analysis.conformance import ProtocolChecker, check_trace
from repro.controller import PramSubsystem
from repro.controller.scheduler import SchedulerPolicy
from repro.experiments import fig12_interleaving_timing, reliability
from repro.experiments.runner import QUICK
from repro.pram.commands import Command, CommandRecord
from repro.sim import Simulator
from repro.telemetry import (
    RecordingTracer,
    spanlog_commands,
    use_tracer,
    write_spanlog,
)


def run_workload(tracer=None, **subsystem_kwargs):
    """Drive a mixed read/write workload under a recording tracer."""
    if tracer is None:
        tracer = RecordingTracer()
    with use_tracer(tracer):
        sim = Simulator()
        subsystem = PramSubsystem(sim, **subsystem_kwargs)
    payload = bytes((i * 7) % 256 for i in range(16 * 1024))

    def driver():
        yield from subsystem.write(0, payload)
        first = yield from subsystem.read(0, len(payload))
        assert first == payload
        # Re-read to exercise RAB/RDB phase skipping on warm buffers.
        again = yield from subsystem.read(0, 4096)
        assert again == payload[:4096]

    sim.process(driver())
    sim.run()
    return subsystem, tracer


class CheckingTracer(RecordingTracer):
    """Recording tracer that checks each command as it is issued."""

    def __init__(self):
        super().__init__()
        self.checker = ProtocolChecker()

    def command(self, record):
        super().command(record)
        self.checker.observe(self.commands[-1])


# ----------------------------------------------------------------------
# Legal traces
# ----------------------------------------------------------------------
def test_runtime_monitor_accepts_real_controller():
    _, tracer = run_workload(CheckingTracer())
    assert tracer.commands
    assert tracer.checker.violations == []


def test_recorded_trace_replays_clean_offline():
    _, tracer = run_workload()
    assert tracer.commands
    assert check_trace(tracer.commands) == []


def test_phase_skips_happen_and_are_legal():
    subsystem, tracer = run_workload()
    skips = sum(ch.phase_skips["pre_active"] for ch in subsystem.channels)
    assert skips > 0, "workload never exercised phase skipping"
    skip_records = [r for r in tracer.commands
                    if r.skipped_pre_active or r.skipped_activate]
    assert skip_records, "no skip was recorded"
    assert check_trace(tracer.commands) == []


def test_monitored_run_with_pre_resets_and_wear_leveling():
    tracer = RecordingTracer()
    with use_tracer(tracer):
        sim = Simulator()
        subsystem = PramSubsystem(
            sim, policy=SchedulerPolicy.FINAL,
            wear_leveling=True, gap_write_interval=4)
    payload = bytes(512) + bytes(range(256)) * 6

    def driver():
        subsystem.register_write_hint(0, len(payload))
        yield from subsystem.drain_hints()
        for _ in range(4):
            yield from subsystem.write(0, payload)
        data = yield from subsystem.read(0, len(payload))
        assert data == payload

    sim.process(driver())
    sim.run()
    assert check_trace(tracer.commands) == []


def test_trace_save_load_round_trip(tmp_path):
    _, tracer = run_workload()
    path = tmp_path / "spans.jsonl"
    write_spanlog(tracer, str(path))
    assert spanlog_commands(str(path)) == tracer.commands
    assert analysis_main.main(["--trace", str(path)]) == 0


def test_fig12_commands_replay_clean():
    # Three simulators restart at t = 0 on channel 0; their scopes keep
    # the checker from reading them as one device whose clock went back.
    tracer = RecordingTracer()
    with use_tracer(tracer):
        fig12_interleaving_timing.run()
    assert len(tracer.commands) == 37
    assert check_trace(tracer.commands) == []


def test_endurance_sweep_commands_replay_clean():
    # One simulator per endurance budget, each in a scope of its own;
    # pre-RESETs and fault retries included.
    tracer = RecordingTracer()
    with use_tracer(tracer):
        reliability.run(QUICK)
    assert len(tracer.commands) == 9166
    assert len({record.scope for record in tracer.commands}) == len(
        reliability.ENDURANCE_SWEEP)
    assert check_trace(tracer.commands) == []


# ----------------------------------------------------------------------
# Illegal sequences
# ----------------------------------------------------------------------
def record(time, command, scope="", **fields):
    return CommandRecord(time=time, channel=0, module=0,
                         command=command, scope=scope, **fields)


def test_activate_before_pre_active_rejected():
    violations = check_trace([
        record(0.0, Command.ACTIVATE, buffer_id=0, partition=0, row=5,
               upper_row=0, lower_row=5),
    ])
    assert len(violations) == 1
    assert "before any pre-active" in violations[0].reason


def test_illegal_pre_active_skip_rejected():
    violations = check_trace([
        record(0.0, Command.PRE_ACTIVE, buffer_id=0, upper_row=1),
        record(10.0, Command.ACTIVATE, buffer_id=0, partition=0, row=70,
               upper_row=2, lower_row=6, skipped_pre_active=True),
    ])
    assert len(violations) == 1
    assert "illegal pre-active skip" in violations[0].reason


def test_illegal_activate_skip_rejected():
    violations = check_trace([
        record(0.0, Command.PRE_ACTIVE, buffer_id=1, upper_row=0),
        record(10.0, Command.READ_BURST, buffer_id=1, partition=0, row=3,
               skipped_activate=True),
    ])
    assert len(violations) == 1
    assert "illegal activate skip" in violations[0].reason


def test_rdb_row_mismatch_rejected():
    violations = check_trace([
        record(0.0, Command.PRE_ACTIVE, buffer_id=0, upper_row=0),
        record(5.0, Command.ACTIVATE, buffer_id=0, partition=0, row=4,
               upper_row=0, lower_row=4),
        record(9.0, Command.READ_BURST, buffer_id=0, partition=0, row=8),
    ])
    assert len(violations) == 1
    assert "burst targets partition 0 row 8" in violations[0].reason


def test_program_made_rdb_stale():
    violations = check_trace([
        record(0.0, Command.PRE_ACTIVE, buffer_id=0, upper_row=0),
        record(5.0, Command.ACTIVATE, buffer_id=0, partition=0, row=4,
               upper_row=0, lower_row=4),
        record(10.0, Command.STAGE_PROGRAM, partition=0, row=4),
        record(20.0, Command.EXECUTE_PROGRAM, partition=0, row=4),
        # The RDB copy of row 4 is now stale; bursting it is illegal.
        record(30.0, Command.READ_BURST, buffer_id=0, partition=0, row=4),
    ])
    assert len(violations) == 1
    assert "illegal activate skip" in violations[0].reason


def test_double_stage_and_orphan_execute_rejected():
    violations = check_trace([
        record(0.0, Command.STAGE_PROGRAM, partition=0, row=1),
        record(5.0, Command.STAGE_PROGRAM, partition=0, row=2),
        record(10.0, Command.EXECUTE_PROGRAM, partition=0, row=2),
        record(15.0, Command.EXECUTE_PROGRAM, partition=0, row=2),
    ])
    reasons = " | ".join(v.reason for v in violations)
    assert len(violations) == 2
    assert "already holds a staged program" in reasons
    assert "no staged program" in reasons


def test_time_going_backwards_rejected():
    violations = check_trace([
        record(10.0, Command.PRE_ACTIVE, buffer_id=0, upper_row=0),
        record(5.0, Command.PRE_ACTIVE, buffer_id=1, upper_row=0),
    ])
    assert len(violations) == 1
    assert "time went backwards" in violations[0].reason


def test_state_does_not_leak_between_scopes():
    opened = [
        record(0.0, Command.PRE_ACTIVE, "a", buffer_id=0, upper_row=0),
        record(5.0, Command.ACTIVATE, "a", buffer_id=0, partition=0,
               row=4, upper_row=0, lower_row=4),
        record(9.0, Command.READ_BURST, "a", buffer_id=0, partition=0,
               row=4),
    ]
    # Scope b restarts at t = 0, after scope a's clock reached 9 ns:
    # not time going backwards.  Its burst of the row only scope a
    # activated is an illegal skip, named after scope b.
    violations = check_trace(opened + [
        record(0.0, Command.READ_BURST, "b", buffer_id=0, partition=0,
               row=4),
    ])
    assert len(violations) == 1
    assert "illegal activate skip" in violations[0].reason
    assert violations[0].record.scope == "b"
    assert str(violations[0]).startswith("b ")
    # Within one scope a program still makes the RDB copy stale.
    violations = check_trace(opened + [
        record(10.0, Command.STAGE_PROGRAM, "a", partition=0, row=4),
        record(20.0, Command.EXECUTE_PROGRAM, "a", partition=0, row=4),
        record(30.0, Command.READ_BURST, "a", buffer_id=0, partition=0,
               row=4),
    ])
    assert len(violations) == 1
    assert "illegal activate skip" in violations[0].reason
    assert violations[0].record.scope == "a"


def test_cli_rejects_illegal_trace(tmp_path):
    tracer = RecordingTracer()
    tracer.command(record(0.0, Command.ACTIVATE, buffer_id=0, partition=0,
                          row=5, upper_row=0, lower_row=5))
    path = tmp_path / "spans.jsonl"
    write_spanlog(tracer, str(path))
    assert analysis_main.main(["--trace", str(path)]) == 1


# ----------------------------------------------------------------------
# Input the replay cannot read exits 2 before any replay
# ----------------------------------------------------------------------
_COMMAND = record(0.0, Command.PRE_ACTIVE, buffer_id=0, upper_row=0)
_SPAN = {"type": "span", "name": "x", "track": "t", "start_ns": 0.0,
         "end_ns": 1.0}


@pytest.mark.parametrize("lines", [
    pytest.param(None, id="missing-file"),
    pytest.param("directory", id="unreadable-file"),
    pytest.param(["{not json"], id="not-json"),
    pytest.param([json.dumps(_COMMAND.to_dict())], id="no-spanlog-type"),
    pytest.param([json.dumps({"traceEvents": []})], id="perfetto-trace"),
    pytest.param([json.dumps({"type": "command",
                              "record": {"time": 0.0, "command": "nop"}})],
                 id="unparseable-record"),
    pytest.param([json.dumps({"type": "command",
                              "record": {**_COMMAND.to_dict(), "time": "x"}})],
                 id="mistyped-record"),
    pytest.param([json.dumps(_SPAN)], id="no-command-lines"),
    pytest.param([], id="empty-file"),
])
def test_cli_exits_2_on_input_it_cannot_replay(tmp_path, capsys, lines):
    path = tmp_path / "spans.jsonl"
    if lines == "directory":
        path.mkdir()
    elif lines is not None:
        path.write_text("".join(line + "\n" for line in lines))
    assert analysis_main.main(["--trace", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.splitlines()) == 1
    assert "--trace" in err and str(path) in err
