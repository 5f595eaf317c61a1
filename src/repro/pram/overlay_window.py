"""Overlay window and program buffer (Section II-B, Figure 4).

Writes never touch the storage array directly: the external controller
maps the overlay window somewhere in the module's address space (the
OWBA), fills the window's registers — command code, target address,
burst size — streams the payload into the program buffer, and pokes the
execute register.  The module then programs the buffered data into the
designated partition on its own, exposing progress via the status
register.

Section V-B places the registers at these offsets from the OWBA, after
a 128-byte meta-information block:

====================  ========  =======================================
register              offset    purpose
====================  ========  =======================================
command code          +0x80     memory operation type (e.g. program)
data address          +0x8B     target row address for the program
multi-purpose         +0x93     burst size in bytes
execute               +0xC0     writing 1 launches the program
status                +0xC8     0 = idle, 1 = busy programming
program buffer        +0x800    payload staging area
====================  ========  =======================================

The model keeps what that sequence carries, not its encoding: a staged
program is its command, partition, row, column and payload, and the
status register is the :attr:`OverlayWindow.busy` flag.  The time of
the register writes and the payload burst is priced by
:meth:`~repro.pram.module.PramModule.stage_program`.
"""

from __future__ import annotations

import typing

from repro.pram.errors import ProtocolError

#: Command codes accepted by the command register.
CMD_PROGRAM = 0x41
CMD_SELECTIVE_ERASE = 0x42  # program of all-zero words (RESET-only)
CMD_ERASE = 0x43            # bulk partition-range erase
CMD_RETRY_PROGRAM = 0x44    # SET-only re-program of verify-failed words

#: Every command code :meth:`OverlayWindow.execute` accepts.
_COMMANDS = frozenset((CMD_PROGRAM, CMD_SELECTIVE_ERASE, CMD_ERASE,
                       CMD_RETRY_PROGRAM))

#: A staged program: (command, partition, row, column, payload).
StagedProgram = typing.Tuple[int, int, int, int, bytes]


class OverlayWindow:
    """The staged program and status of one PRAM module's window."""

    def __init__(self, program_buffer_bytes: int = 512) -> None:
        if program_buffer_bytes < 1:
            raise ValueError("program buffer must have positive size")
        self.program_buffer_bytes = program_buffer_bytes
        # Nothing staged yet: command code 0 is no command, so an
        # execute before any stage is refused as unknown.
        self._staged: StagedProgram = (0, 0, 0, 0, b"")
        self._busy = False

    def stage(self, command: int, partition: int, row: int, column: int,
              payload: bytes) -> None:
        """Program staging: the command, the target and ``payload``
        into the program buffer.

        A payload larger than the buffer is refused before anything
        changes, so a program staged earlier stays staged.
        """
        size = len(payload)
        if size > self.program_buffer_bytes:
            raise ProtocolError(
                f"program-buffer write [0, {size}) "
                f"exceeds {self.program_buffer_bytes} bytes"
            )
        self._staged = (command, partition, row, column, payload)

    def execute(self) -> StagedProgram:
        """Execute: hand the staged program to the module.

        Returns ``(command, partition, row, column, payload)`` and sets
        the window busy; the module calls :meth:`complete` when the
        array program ends.  A bulk erase carries no burst, so only the
        other commands need a payload of 1 to ``program_buffer_bytes``.
        """
        staged = self._staged
        command = staged[0]
        if command not in _COMMANDS:
            raise ProtocolError(f"unknown command code {command:#x}")
        if self._busy:
            raise ProtocolError("module is already programming")
        if command != CMD_ERASE:
            size = len(staged[4])
            if size < 1 or size > self.program_buffer_bytes:
                raise ProtocolError(
                    f"burst size {size} outside program buffer "
                    f"(1..{self.program_buffer_bytes})"
                )
        self._busy = True
        return staged

    def complete(self) -> None:
        """Mark the in-flight program finished (status back to idle)."""
        if not self._busy:
            raise ProtocolError("complete() with no program in flight")
        self._busy = False

    @property
    def busy(self) -> bool:
        """True while an executed program has not completed."""
        return self._busy
