"""LPDDR2-NVM three-phase addressing conformance checking.

The controller earns its latency wins by *skipping* addressing phases:
an RAB hit skips pre-active, an RDB hit skips pre-active and activate
(PAPER.md §3, Section III-B).  A skip is only legal when the buffer the
controller believes is loaded actually holds the row it needs — the
exact invariant that silently breaks when buffer rotation, invalidation
on program, or wear-level remapping go wrong.

This module mirrors the device's buffer file as an explicit state
machine over a stream of :class:`CommandRecord` entries:

* ``PRE_ACTIVE`` latches an upper row address into a RAB (and, like the
  hardware, drops the paired RDB contents);
* ``ACTIVATE`` is legal only on a buffer whose RAB is valid and, when
  the record carries the controller's assumed ``upper_row``, only when
  the latched value matches — a mismatch is an illegal pre-active skip;
* ``READ_BURST`` is legal only on a buffer whose RDB holds exactly the
  ``(partition, row)`` being read — a mismatch is an illegal activate
  skip;
* ``STAGE_PROGRAM`` / ``EXECUTE_PROGRAM`` must alternate per module
  (one overlay window), and an executed program invalidates every RDB
  copy of the programmed row.

Records also carry simulated timestamps and the tracer scope of the
run that issued them.  The checker keeps its buffer mirrors and its
clock per scope, since separate runs share no device; time running
backwards within one scope is reported as a violation (the cheapest
smoke test for a nondeterministic or corrupted trace).

The records come from a recording tracer
(:class:`repro.telemetry.RecordingTracer`), which keeps every command a
channel controller issues; :func:`check_trace` replays them, and
``python -m repro.analysis --trace DIR/spans.jsonl`` replays the
``command`` lines of the span log that ``--observe DIR`` writes.
"""

from __future__ import annotations

import dataclasses
import typing

from repro.pram.commands import Command, CommandRecord


@dataclasses.dataclass(frozen=True)
class Violation:
    """One conformance failure, tied to the offending record."""

    record: CommandRecord
    reason: str

    def __str__(self) -> str:
        record = self.record
        where = f"{record.scope} " if record.scope else ""
        return (f"{where}t={record.time:.1f}ns ch{record.channel}"
                f".m{record.module} {record.command.value}: {self.reason}")


@dataclasses.dataclass
class _BufferState:
    """Mirror of one RAB/RDB pair."""

    rab_valid: bool = False
    rab_upper: int | None = None
    rdb_valid: bool = False
    rdb_partition: int | None = None
    rdb_row: int | None = None


class _ModuleState:
    """Mirror of one module: its buffer file and overlay window."""

    def __init__(self) -> None:
        self.buffers: typing.Dict[int, _BufferState] = {}
        self.window_staged = False
        self.staged_target: typing.Tuple[int, int] | None = None

    def buffer(self, buffer_id: int) -> _BufferState:
        return self.buffers.setdefault(buffer_id, _BufferState())

    def invalidate_row(self, partition: int, row: int) -> None:
        for state in self.buffers.values():
            if (state.rdb_valid and state.rdb_partition == partition
                    and state.rdb_row == row):
                state.rdb_valid = False
                state.rdb_partition = None
                state.rdb_row = None


class ProtocolChecker:
    """Validates a stream of :class:`CommandRecord` entries.

    State is kept per scope: each simulated run has its own module
    mirrors and its own clock, since runs share no device and each
    restarts at t = 0 on the same channel and module numbers.
    Failures accumulate in :attr:`violations`.
    """

    def __init__(self) -> None:
        self.violations: typing.List[Violation] = []
        self._modules: typing.Dict[typing.Tuple[str, int, int],
                                   _ModuleState] = {}
        self._clocks: typing.Dict[str, float] = {}

    # ------------------------------------------------------------------
    def observe(self, record: CommandRecord) -> None:
        """Feed one command; a failure joins :attr:`violations`."""
        violation = self._validate(record)
        if violation is not None:
            self.violations.append(violation)

    # ------------------------------------------------------------------
    def _validate(self, record: CommandRecord
                  ) -> Violation | None:
        last = self._clocks.get(record.scope, float("-inf"))
        if record.time < last:
            return Violation(
                record,
                f"time went backwards ({record.time} < {last}); "
                "trace is out of order or the clock is corrupted",
            )
        self._clocks[record.scope] = record.time
        module = self._modules.setdefault(
            (record.scope, record.channel, record.module), _ModuleState())
        handler = {
            Command.PRE_ACTIVE: self._on_pre_active,
            Command.ACTIVATE: self._on_activate,
            Command.READ_BURST: self._on_read_burst,
            Command.STAGE_PROGRAM: self._on_stage_program,
            Command.EXECUTE_PROGRAM: self._on_execute_program,
        }[record.command]
        return handler(record, module)

    def _on_pre_active(self, record: CommandRecord, module: _ModuleState
                       ) -> Violation | None:
        if record.buffer_id is None or record.upper_row is None:
            return Violation(
                record, "pre-active must carry a buffer_id and upper_row")
        if record.upper_row < 0:
            return Violation(
                record, f"negative upper row {record.upper_row}")
        state = module.buffer(record.buffer_id)
        state.rab_valid = True
        state.rab_upper = record.upper_row
        # Loading the RAB drops the paired RDB contents, as in hardware.
        state.rdb_valid = False
        state.rdb_partition = None
        state.rdb_row = None
        return None

    def _on_activate(self, record: CommandRecord, module: _ModuleState
                     ) -> Violation | None:
        if (record.buffer_id is None or record.partition is None
                or record.row is None):
            return Violation(
                record,
                "activate must carry buffer_id, partition, and row")
        state = module.buffer(record.buffer_id)
        if not state.rab_valid:
            return Violation(
                record,
                f"activate on buffer {record.buffer_id} before any "
                "pre-active latched an upper row address",
            )
        if (record.upper_row is not None
                and state.rab_upper != record.upper_row):
            return Violation(
                record,
                f"illegal pre-active skip: RAB of buffer "
                f"{record.buffer_id} holds upper row {state.rab_upper}, "
                f"but the activate assumes {record.upper_row}",
            )
        state.rdb_valid = True
        state.rdb_partition = record.partition
        state.rdb_row = record.row
        return None

    def _on_read_burst(self, record: CommandRecord, module: _ModuleState
                       ) -> Violation | None:
        if (record.buffer_id is None or record.partition is None
                or record.row is None):
            return Violation(
                record,
                "read burst must carry buffer_id, partition, and row")
        state = module.buffer(record.buffer_id)
        if not state.rdb_valid:
            return Violation(
                record,
                f"illegal activate skip: RDB of buffer {record.buffer_id} "
                "holds no sensed row",
            )
        if (state.rdb_partition != record.partition
                or state.rdb_row != record.row):
            return Violation(
                record,
                f"illegal phase skip: RDB of buffer {record.buffer_id} "
                f"holds partition {state.rdb_partition} row "
                f"{state.rdb_row}, but the burst targets partition "
                f"{record.partition} row {record.row}",
            )
        return None

    def _on_stage_program(self, record: CommandRecord, module: _ModuleState
                          ) -> Violation | None:
        if record.partition is None or record.row is None:
            return Violation(
                record, "stage-program must carry partition and row")
        if module.window_staged:
            return Violation(
                record,
                "overlay window already holds a staged program; the "
                "previous stage was never executed",
            )
        module.window_staged = True
        module.staged_target = (record.partition, record.row)
        return None

    def _on_execute_program(self, record: CommandRecord,
                            module: _ModuleState
                            ) -> Violation | None:
        if not module.window_staged:
            return Violation(
                record,
                "execute with no staged program in the overlay window")
        module.window_staged = False
        target = module.staged_target
        module.staged_target = None
        if target is not None:
            # The programmed row is stale in every RDB that cached it.
            module.invalidate_row(*target)
        return None


# ----------------------------------------------------------------------
def check_trace(records: typing.Iterable[CommandRecord]
                ) -> typing.List[Violation]:
    """Replay a recorded command trace; returns all violations."""
    checker = ProtocolChecker()
    for record in records:
        checker.observe(record)
    return checker.violations
