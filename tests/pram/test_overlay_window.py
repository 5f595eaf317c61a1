"""Overlay-window staging and execute-handshake tests."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.pram import OverlayWindow, PramGeometry, ProtocolError
from repro.pram.overlay_window import (
    CMD_ERASE,
    CMD_PROGRAM,
    CMD_RETRY_PROGRAM,
    CMD_SELECTIVE_ERASE,
)


def staged_window(command=CMD_PROGRAM, size=32):
    window = OverlayWindow()
    window.stage(command, 3, 7, 0, bytes(range(size % 256)))
    return window


class TestProgramBuffer:
    def test_write_and_read_back(self):
        window = OverlayWindow()
        window.stage(CMD_PROGRAM, 0, 0, 4, b"abcd")
        assert window.execute()[4] == b"abcd"

    def test_out_of_bounds_rejected(self):
        window = OverlayWindow()
        with pytest.raises(ProtocolError, match=r"\[0, 513\) exceeds 512"):
            window.stage(CMD_PROGRAM, 0, 0, 0, bytes(513))

    def test_buffer_size_must_be_positive(self):
        with pytest.raises(ValueError):
            OverlayWindow(program_buffer_bytes=0)


class TestLaunchHandshake:
    def test_launch_returns_staged_fields(self):
        window = OverlayWindow()
        window.stage(CMD_PROGRAM, 3, 7, 16, bytes(range(16)))
        assert window.execute() == (CMD_PROGRAM, 3, 7, 16, bytes(range(16)))
        assert window.busy

    def test_launch_with_unknown_command_rejected(self):
        window = staged_window(command=0x99)
        with pytest.raises(ProtocolError, match="unknown command code 0x99"):
            window.execute()
        assert not window.busy

    def test_double_launch_rejected(self):
        window = staged_window()
        window.execute()
        with pytest.raises(ProtocolError, match="already programming"):
            window.execute()

    def test_launch_validates_burst_size(self):
        window = staged_window(size=0)
        with pytest.raises(ProtocolError, match="burst size 0 outside"):
            window.execute()
        assert not window.busy

    def test_erase_command_skips_size_check(self):
        window = staged_window(command=CMD_ERASE, size=0)
        command, partition, _, _, payload = window.execute()
        assert (command, partition, payload) == (CMD_ERASE, 3, b"")

    def test_selective_erase_launches_like_program(self):
        window = staged_window(command=CMD_SELECTIVE_ERASE, size=32)
        command, _, _, _, payload = window.execute()
        assert command == CMD_SELECTIVE_ERASE
        assert len(payload) == 32

    def test_complete_frees_the_window(self):
        window = staged_window()
        window.execute()
        window.complete()
        assert not window.busy
        window.execute()  # can go again

    def test_complete_without_launch_rejected(self):
        with pytest.raises(ProtocolError):
            OverlayWindow().complete()


def test_a_refused_stage_leaves_the_window_as_it_was():
    window = OverlayWindow(program_buffer_bytes=16)
    window.stage(CMD_PROGRAM, 1, 2, 0, b"\x07" * 16)
    with pytest.raises(ProtocolError, match=r"write \[0, 17\) exceeds 16"):
        window.stage(CMD_SELECTIVE_ERASE, 3, 4, 0, bytes(17))
    assert not window.busy
    assert window.execute() == (CMD_PROGRAM, 1, 2, 0, b"\x07" * 16)


# ----------------------------------------------------------------------
# The staged fields against Section V-B's register sequence
# ----------------------------------------------------------------------
GEOMETRY = PramGeometry()


class RegisterWindow:
    """The window as Section V-B's register sequence runs it.

    Staging writes the command-code, data-address and multi-purpose
    (burst size) registers, then the payload into the program buffer;
    execute writes the execute register, checks the registers and reads
    the payload back out.  The data address is the flat target
    ``(partition * rows + row) * row_bytes + column``.  A payload the
    buffer cannot hold is refused before any register is written.
    """

    REG_COMMAND = 0x80
    REG_ADDRESS = 0x8B
    REG_MULTIPURPOSE = 0x93
    REG_EXECUTE = 0xC0
    REG_STATUS = 0xC8
    COMMANDS = (CMD_PROGRAM, CMD_SELECTIVE_ERASE, CMD_ERASE,
                CMD_RETRY_PROGRAM)

    def __init__(self, program_buffer_bytes=512):
        self.program_buffer_bytes = program_buffer_bytes
        self.registers = dict.fromkeys(
            (self.REG_COMMAND, self.REG_ADDRESS, self.REG_MULTIPURPOSE,
             self.REG_EXECUTE, self.REG_STATUS), 0)
        self.buffer = bytearray(program_buffer_bytes)

    def stage(self, command, partition, row, column, payload):
        if len(payload) > self.program_buffer_bytes:
            raise ProtocolError(
                f"program-buffer write [0, {len(payload)}) "
                f"exceeds {self.program_buffer_bytes} bytes")
        address = ((partition * GEOMETRY.rows_per_partition + row)
                   * GEOMETRY.row_bytes + column)
        self.registers[self.REG_COMMAND] = command
        self.registers[self.REG_ADDRESS] = address
        self.registers[self.REG_MULTIPURPOSE] = len(payload)
        self.buffer[:len(payload)] = payload

    def execute(self):
        registers = self.registers
        registers[self.REG_EXECUTE] = 1
        command = registers[self.REG_COMMAND]
        if command not in self.COMMANDS:
            raise ProtocolError(f"unknown command code {command:#x}")
        if registers[self.REG_STATUS] == 1:
            raise ProtocolError("module is already programming")
        size = registers[self.REG_MULTIPURPOSE]
        if command != CMD_ERASE and not (
                1 <= size <= self.program_buffer_bytes):
            raise ProtocolError(
                f"burst size {size} outside program buffer "
                f"(1..{self.program_buffer_bytes})")
        registers[self.REG_STATUS] = 1
        registers[self.REG_EXECUTE] = 0
        return self.staged()

    def complete(self):
        if self.registers[self.REG_STATUS] != 1:
            raise ProtocolError("complete() with no program in flight")
        self.registers[self.REG_STATUS] = 0

    def staged(self):
        """The staged program, decoded from the registers and buffer."""
        rest, column = divmod(self.registers[self.REG_ADDRESS],
                              GEOMETRY.row_bytes)
        partition, row = divmod(rest, GEOMETRY.rows_per_partition)
        size = self.registers[self.REG_MULTIPURPOSE]
        return (self.registers[self.REG_COMMAND], partition, row, column,
                bytes(self.buffer[:size]))

    @property
    def busy(self):
        return self.registers[self.REG_STATUS] == 1


def _run(window, step):
    if step[0] == "stage":
        return window.stage(*step[1:])
    if step[0] == "execute":
        return window.execute()
    return window.complete()


window_steps = st.one_of(
    st.tuples(st.just("stage"),
              st.sampled_from([CMD_PROGRAM, CMD_SELECTIVE_ERASE, CMD_ERASE,
                               CMD_RETRY_PROGRAM, 0x00, 0x45]),
              st.integers(min_value=0,
                          max_value=GEOMETRY.partitions_per_bank - 1),
              st.integers(min_value=0,
                          max_value=GEOMETRY.rows_per_partition - 1),
              st.integers(min_value=0, max_value=GEOMETRY.row_bytes - 1),
              st.sampled_from([0, 1, 31, 32, 33, 511, 512, 513, 600]).map(
                  lambda size: bytes(range(256)) * (size // 256)
                  + bytes(range(size % 256)))),
    st.tuples(st.just("execute")),
    st.tuples(st.just("complete")))


@given(st.lists(window_steps, max_size=12))
@settings(max_examples=300, deadline=None)
def test_phase_calls_match_the_register_sequence(steps):
    # Each call returns, raises (ProtocolError with the same message)
    # and leaves the staged program and status as the register
    # sequence does.
    window, reference = OverlayWindow(), RegisterWindow()
    for step in steps:
        outcomes = []
        for subject in (window, reference):
            try:
                outcomes.append(_run(subject, step))
            except ProtocolError as error:
                outcomes.append(f"ProtocolError: {error}")
        assert outcomes[0] == outcomes[1]
        assert window._staged == reference.staged()
        assert window.busy == reference.busy
