"""Overlay window and program buffer (Section II-B, Figure 4).

Writes never touch the storage array directly: the external controller
maps the overlay window somewhere in the module's address space (the
OWBA), fills the window's registers — command code, target address,
burst size — streams the payload into the program buffer, and pokes the
execute register.  The module then programs the buffered data into the
designated partition on its own, exposing progress via the status
register.

Register offsets follow Section V-B:

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
"""

from __future__ import annotations

import typing

from repro.pram.errors import ProtocolError

#: Register offsets within the overlay window.
REG_COMMAND = 0x80
REG_ADDRESS = 0x8B
REG_MULTIPURPOSE = 0x93
REG_EXECUTE = 0xC0
REG_STATUS = 0xC8
PROGRAM_BUFFER_OFFSET = 0x800

#: Command codes accepted by the command register.
CMD_PROGRAM = 0x41
CMD_SELECTIVE_ERASE = 0x42  # program of all-zero words (RESET-only)
CMD_ERASE = 0x43            # bulk partition-range erase
CMD_RETRY_PROGRAM = 0x44    # SET-only re-program of verify-failed words

#: Size of the meta-information block at the window base (Figure 4).
META_BYTES = 128

#: Every command code :meth:`OverlayWindow.launch` accepts.
_COMMANDS = frozenset((CMD_PROGRAM, CMD_SELECTIVE_ERASE, CMD_ERASE,
                       CMD_RETRY_PROGRAM))


class OverlayWindow:
    """Register file + program buffer of one PRAM module."""

    def __init__(self, program_buffer_bytes: int = 512) -> None:
        if program_buffer_bytes < 1:
            raise ValueError("program buffer must have positive size")
        self.base_address = 0  # OWBA; relocatable via set_base
        self.program_buffer_bytes = program_buffer_bytes
        self._registers: typing.Dict[int, int] = {
            REG_COMMAND: 0,
            REG_ADDRESS: 0,
            REG_MULTIPURPOSE: 0,
            REG_EXECUTE: 0,
            REG_STATUS: 0,
        }
        self._buffer = bytearray(program_buffer_bytes)
        self._buffer_filled = 0

    # ------------------------------------------------------------------
    # Address-space mapping
    # ------------------------------------------------------------------
    def set_base(self, address: int) -> None:
        """Relocate the window (configure the OWBA)."""
        if address < 0:
            raise ValueError(f"negative OWBA: {address}")
        self.base_address = address

    def contains(self, address: int) -> bool:
        """True if ``address`` falls inside the mapped window."""
        span = PROGRAM_BUFFER_OFFSET + self.program_buffer_bytes
        return self.base_address <= address < self.base_address + span

    # ------------------------------------------------------------------
    # Register access (addresses are window-relative offsets)
    # ------------------------------------------------------------------
    def write_register(self, offset: int, value: int) -> None:
        """Store ``value`` into the register at ``offset``."""
        if offset not in self._registers:
            raise ProtocolError(f"no register at offset {offset:#x}")
        if offset == REG_STATUS:
            raise ProtocolError("status register is read-only")
        self._registers[offset] = value

    def read_register(self, offset: int) -> int:
        """Read the register at ``offset``."""
        if offset not in self._registers:
            raise ProtocolError(f"no register at offset {offset:#x}")
        return self._registers[offset]

    # ------------------------------------------------------------------
    # Program buffer
    # ------------------------------------------------------------------
    def write_buffer(self, offset: int, data: bytes) -> None:
        """Stage payload bytes at ``offset`` within the program buffer."""
        if offset < 0 or offset + len(data) > self.program_buffer_bytes:
            raise ProtocolError(
                f"program-buffer write [{offset}, {offset + len(data)}) "
                f"exceeds {self.program_buffer_bytes} bytes"
            )
        self._buffer[offset:offset + len(data)] = data
        self._buffer_filled = max(self._buffer_filled, offset + len(data))

    def read_buffer(self, offset: int, size: int) -> bytes:
        """Read back staged payload (diagnostics)."""
        if offset < 0 or offset + size > self.program_buffer_bytes:
            raise ProtocolError("program-buffer read out of bounds")
        return bytes(self._buffer[offset:offset + size])

    # ------------------------------------------------------------------
    # One call per LPDDR2-NVM phase (what a chunk's program issues)
    # ------------------------------------------------------------------
    def stage(self, command: int, address: int, data: bytes) -> None:
        """Program staging: the command, data-address and multi-purpose
        (burst size) registers, then ``data`` into the program buffer.

        The register sequence ``write_register(REG_COMMAND, command)``,
        ``write_register(REG_ADDRESS, address)``,
        ``write_register(REG_MULTIPURPOSE, len(data))``,
        ``write_buffer(0, data)`` in one call.  It leaves the same
        state and raises the same :class:`ProtocolError` at the same
        point: the registers are written before a payload larger than
        the buffer is refused.
        """
        registers = self._registers
        registers[REG_COMMAND] = command
        registers[REG_ADDRESS] = address
        size = len(data)
        registers[REG_MULTIPURPOSE] = size
        if size > self.program_buffer_bytes:
            raise ProtocolError(
                f"program-buffer write [0, {size}) "
                f"exceeds {self.program_buffer_bytes} bytes"
            )
        self._buffer[:size] = data
        if size > self._buffer_filled:
            self._buffer_filled = size

    def execute(self) -> typing.Tuple[int, int, int, bytes]:
        """Execute: ``write_register(REG_EXECUTE, 1)``, then
        :meth:`launch`, in one call, with launch's checks and result.

        Returns ``(command, target_row_address, size, payload)`` and
        flips the status register to busy; the module calls
        :meth:`complete` when the array program ends.
        """
        registers = self._registers
        registers[REG_EXECUTE] = 1
        command = registers[REG_COMMAND]
        if command not in _COMMANDS:
            raise ProtocolError(f"unknown command code {command:#x}")
        if registers[REG_STATUS] == 1:
            raise ProtocolError("module is already programming")
        size = registers[REG_MULTIPURPOSE]
        if command != CMD_ERASE:
            if size < 1 or size > self.program_buffer_bytes:
                raise ProtocolError(
                    f"burst size {size} outside program buffer "
                    f"(1..{self.program_buffer_bytes})"
                )
            payload = bytes(self._buffer[:size])
        else:
            payload = b""
        registers[REG_STATUS] = 1
        registers[REG_EXECUTE] = 0
        return command, registers[REG_ADDRESS], size, payload

    # ------------------------------------------------------------------
    # Execution handshake (driven by the module)
    # ------------------------------------------------------------------
    def launch(self) -> typing.Tuple[int, int, int, bytes]:
        """Validate registers and hand the staged program to the module.

        The register-level handshake: the execute register must already
        be set.  Otherwise as :meth:`execute`, which the module calls.
        """
        command = self._registers[REG_COMMAND]
        if command not in _COMMANDS:
            raise ProtocolError(f"unknown command code {command:#x}")
        if self._registers[REG_EXECUTE] != 1:
            raise ProtocolError("execute register not set")
        return self.execute()

    def complete(self) -> None:
        """Mark the in-flight program finished (status back to idle)."""
        if self._registers[REG_STATUS] != 1:
            raise ProtocolError("complete() with no program in flight")
        self._registers[REG_STATUS] = 0
        self._buffer_filled = 0

    @property
    def busy(self) -> bool:
        """True while a launched program has not completed."""
        return self._registers[REG_STATUS] == 1
