"""Overlay-window register file and program-buffer handshake tests."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.pram import OverlayWindow, ProtocolError
from repro.pram.overlay_window import (
    CMD_ERASE,
    CMD_PROGRAM,
    CMD_RETRY_PROGRAM,
    CMD_SELECTIVE_ERASE,
    PROGRAM_BUFFER_OFFSET,
    REG_ADDRESS,
    REG_COMMAND,
    REG_EXECUTE,
    REG_MULTIPURPOSE,
    REG_STATUS,
)


def staged_window(command=CMD_PROGRAM, address=0x1000, size=32):
    window = OverlayWindow()
    window.write_register(REG_COMMAND, command)
    window.write_register(REG_ADDRESS, address)
    window.write_register(REG_MULTIPURPOSE, size)
    window.write_buffer(0, bytes(range(size % 256)) or b"\x00")
    window.write_register(REG_EXECUTE, 1)
    return window


class TestRegisterMap:
    def test_section5b_offsets(self):
        assert REG_COMMAND == 0x80
        assert REG_ADDRESS == 0x8B
        assert REG_MULTIPURPOSE == 0x93
        assert REG_EXECUTE == 0xC0
        assert PROGRAM_BUFFER_OFFSET == 0x800

    def test_write_and_read_register(self):
        window = OverlayWindow()
        window.write_register(REG_ADDRESS, 0xBEEF)
        assert window.read_register(REG_ADDRESS) == 0xBEEF

    def test_unknown_register_rejected(self):
        window = OverlayWindow()
        with pytest.raises(ProtocolError):
            window.write_register(0x55, 1)
        with pytest.raises(ProtocolError):
            window.read_register(0x55)

    def test_status_register_is_read_only(self):
        window = OverlayWindow()
        with pytest.raises(ProtocolError):
            window.write_register(REG_STATUS, 1)


class TestWindowMapping:
    def test_default_window_at_zero(self):
        window = OverlayWindow()
        assert window.contains(0)
        assert window.contains(PROGRAM_BUFFER_OFFSET + 100)
        assert not window.contains(PROGRAM_BUFFER_OFFSET + 512)

    def test_relocation_via_owba(self):
        window = OverlayWindow()
        window.set_base(0x40000)
        assert not window.contains(0)
        assert window.contains(0x40000 + 0x80)

    def test_negative_owba_rejected(self):
        with pytest.raises(ValueError):
            OverlayWindow().set_base(-1)


class TestProgramBuffer:
    def test_write_and_read_back(self):
        window = OverlayWindow()
        window.write_buffer(4, b"abcd")
        assert window.read_buffer(4, 4) == b"abcd"

    def test_out_of_bounds_rejected(self):
        window = OverlayWindow()
        with pytest.raises(ProtocolError):
            window.write_buffer(510, b"abcd")
        with pytest.raises(ProtocolError):
            window.read_buffer(-1, 4)

    def test_buffer_size_must_be_positive(self):
        with pytest.raises(ValueError):
            OverlayWindow(program_buffer_bytes=0)


class TestLaunchHandshake:
    def test_launch_returns_staged_fields(self):
        window = staged_window(size=16)
        command, address, size, payload = window.launch()
        assert command == CMD_PROGRAM
        assert address == 0x1000
        assert size == 16
        assert len(payload) == 16
        assert window.busy

    def test_launch_without_execute_rejected(self):
        window = staged_window()
        window.write_register(REG_EXECUTE, 0)
        with pytest.raises(ProtocolError):
            window.launch()

    def test_launch_with_unknown_command_rejected(self):
        window = staged_window(command=0x99)
        with pytest.raises(ProtocolError):
            window.launch()

    def test_double_launch_rejected(self):
        window = staged_window()
        window.launch()
        window.write_register(REG_EXECUTE, 1)
        with pytest.raises(ProtocolError):
            window.launch()

    def test_launch_validates_burst_size(self):
        window = staged_window(size=0)
        with pytest.raises(ProtocolError):
            window.launch()
        window = staged_window(size=513)
        with pytest.raises(ProtocolError):
            window.launch()

    def test_erase_command_skips_size_check(self):
        window = staged_window(command=CMD_ERASE, size=0)
        command, _, _, payload = window.launch()
        assert command == CMD_ERASE
        assert payload == b""

    def test_selective_erase_launches_like_program(self):
        window = staged_window(command=CMD_SELECTIVE_ERASE, size=32)
        command, _, size, _ = window.launch()
        assert command == CMD_SELECTIVE_ERASE
        assert size == 32

    def test_complete_frees_the_window(self):
        window = staged_window()
        window.launch()
        window.complete()
        assert not window.busy
        window.write_register(REG_EXECUTE, 1)
        window.launch()  # can go again

    def test_complete_without_launch_rejected(self):
        with pytest.raises(ProtocolError):
            OverlayWindow().complete()


# ----------------------------------------------------------------------
# One call per phase against the register sequence
# ----------------------------------------------------------------------
def _reference_launch(window):
    """The launch handshake as a register sequence checked it."""
    registers = window._registers
    command = registers[REG_COMMAND]
    if command not in (CMD_PROGRAM, CMD_SELECTIVE_ERASE, CMD_ERASE,
                       CMD_RETRY_PROGRAM):
        raise ProtocolError(f"unknown command code {command:#x}")
    if registers[REG_EXECUTE] != 1:
        raise ProtocolError("execute register not set")
    if registers[REG_STATUS] == 1:
        raise ProtocolError("module is already programming")
    size = registers[REG_MULTIPURPOSE]
    if command != CMD_ERASE and not 1 <= size <= window.program_buffer_bytes:
        raise ProtocolError(
            f"burst size {size} outside program buffer "
            f"(1..{window.program_buffer_bytes})")
    registers[REG_STATUS] = 1
    registers[REG_EXECUTE] = 0
    payload = bytes(window._buffer[:size]) if command != CMD_ERASE else b""
    return command, registers[REG_ADDRESS], size, payload


def _register_sequence(window, step):
    """What ``stage``/``execute``/``complete`` replace, call by call."""
    if step[0] == "stage":
        _, command, address, data = step
        window.write_register(REG_COMMAND, command)
        window.write_register(REG_ADDRESS, address)
        window.write_register(REG_MULTIPURPOSE, len(data))
        window.write_buffer(0, data)
        return None
    if step[0] == "execute":
        window.write_register(REG_EXECUTE, 1)
        return _reference_launch(window)
    window.complete()
    return None


def _one_call(window, step):
    if step[0] == "stage":
        return window.stage(*step[1:])
    if step[0] == "execute":
        return window.execute()
    window.complete()
    return None


def _window_state(window):
    return (dict(window._registers), bytes(window._buffer),
            window._buffer_filled, window.busy)


window_steps = st.one_of(
    st.tuples(st.just("stage"),
              st.sampled_from([CMD_PROGRAM, CMD_SELECTIVE_ERASE, CMD_ERASE,
                               CMD_RETRY_PROGRAM, 0x00, 0x45]),
              st.integers(min_value=0, max_value=1 << 20),
              st.sampled_from([0, 1, 31, 32, 33, 511, 512, 513, 600]).map(
                  lambda size: bytes(range(256)) * (size // 256)
                  + bytes(range(size % 256)))),
    st.tuples(st.just("execute")),
    st.tuples(st.just("complete")))


@given(st.lists(window_steps, max_size=12))
@settings(max_examples=300, deadline=None)
def test_phase_calls_match_the_register_sequence(steps):
    # Each phase call returns, raises (ProtocolError with the same
    # message) and leaves the window exactly as its register sequence.
    fast, reference = OverlayWindow(), OverlayWindow()
    for step in steps:
        outcomes = []
        for window, run in ((fast, _one_call),
                            (reference, _register_sequence)):
            try:
                outcomes.append(run(window, step))
            except ProtocolError as error:
                outcomes.append(f"ProtocolError: {error}")
        assert outcomes[0] == outcomes[1]
        assert _window_state(fast) == _window_state(reference)


def test_staging_past_the_buffer_writes_registers_then_raises():
    window = OverlayWindow(program_buffer_bytes=16)
    with pytest.raises(ProtocolError, match=r"write \[0, 17\) exceeds 16"):
        window.stage(CMD_PROGRAM, 0x40, bytes(17))
    assert window.read_register(REG_MULTIPURPOSE) == 17
    with pytest.raises(ProtocolError, match="burst size 17 outside"):
        window.execute()
