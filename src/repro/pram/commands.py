"""The LPDDR2-NVM command record a channel controller issues.

Each record names one :class:`~repro.pram.module.PramModule` operation
(``pre_active``, ``activate``, ``read_burst``, ``stage_program``,
``execute_program``) as the controller issued it, with the buffer and
row state the controller assumed.  A recording tracer keeps them, the
span log writes them as its ``command`` lines, and
:mod:`repro.analysis.conformance` replays them against the three-phase
addressing protocol.
"""

from __future__ import annotations

import dataclasses
import enum
import typing


class Command(enum.Enum):
    """The five controller-observable LPDDR2-NVM operations."""

    PRE_ACTIVE = "pre_active"
    ACTIVATE = "activate"
    READ_BURST = "read_burst"
    STAGE_PROGRAM = "stage_program"
    EXECUTE_PROGRAM = "execute_program"


@dataclasses.dataclass(frozen=True)
class CommandRecord:
    """One command as issued by a channel controller.

    ``row`` is the composed (full) row index within the partition.
    ``upper_row`` is the value the controller assumes is latched in the
    RAB — recorded on ``ACTIVATE`` so pre-active skips are checkable.
    The ``skipped_*`` flags are diagnostic; legality is derived from
    buffer state, not from the flags.  ``scope`` is the tracer scope of
    the simulated run that issued the command, stamped by the recording
    tracer: every run restarts at t = 0 on channel 0, so the scope is
    what tells two runs' modules apart.
    """

    time: float
    channel: int
    module: int
    command: Command
    buffer_id: int | None = None
    partition: int | None = None
    row: int | None = None
    upper_row: int | None = None
    lower_row: int | None = None
    skipped_pre_active: bool = False
    skipped_activate: bool = False
    scope: str = ""

    def to_dict(self) -> typing.Dict[str, typing.Any]:
        """JSON-serializable representation (a span log's ``record``)."""
        payload = dataclasses.asdict(self)
        payload["command"] = self.command.value
        return payload

    @classmethod
    def from_dict(cls, payload: typing.Mapping[str, typing.Any]
                  ) -> "CommandRecord":
        """Inverse of :meth:`to_dict`."""
        fields = dict(payload)
        fields["command"] = Command(fields["command"])
        return cls(**fields)
