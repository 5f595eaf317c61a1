"""The controller datapath: two 256-bit staging registers (Section V-B).

The PEs' load/store operand size is 32 bytes, so the controller keeps
one 256-bit register per direction.  The datapath validates operand
sizing and latches the last operand in each direction.
"""

from __future__ import annotations


class Datapath:
    """Load/store staging registers between MCU messages and the PHY."""

    REGISTER_BYTES = 32  # 256 bits

    def __init__(self) -> None:
        self._load_register = bytes(self.REGISTER_BYTES)
        self._store_register = bytes(self.REGISTER_BYTES)

    def stage_store(self, data: bytes) -> None:
        """Latch up to 32 bytes heading to the PRAM."""
        self._check(len(data))
        self._store_register = data.ljust(self.REGISTER_BYTES, b"\x00")

    def stage_load(self, data: bytes) -> bytes:
        """Latch data arriving from the PRAM; returns it for forwarding."""
        self._check(len(data))
        self._load_register = data.ljust(self.REGISTER_BYTES, b"\x00")
        return data

    @property
    def load_register(self) -> bytes:
        """Last value latched from the PRAM side."""
        return self._load_register

    @property
    def store_register(self) -> bytes:
        """Last value latched from the MCU side."""
        return self._store_register

    def _check(self, size: int) -> None:
        if size < 1 or size > self.REGISTER_BYTES:
            raise ValueError(
                f"datapath operand must be 1..{self.REGISTER_BYTES} bytes, "
                f"got {size}"
            )
