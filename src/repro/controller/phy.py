"""The 400 MHz PRAM physical layer (Section III-B / V-B).

The MIG does not support PRAM, so the paper implements its own PHY on
28 nm FPGA logic.  For the behavioural model the PHY contributes the
cost of moving 20-bit DDR signal packets — one per addressing-phase
command — and exposes the frequency-matched clock the channel uses.
"""

from __future__ import annotations

from repro.pram.constants import PramTimingParams


class PramPhy:
    """Signal-packet timing for one LPDDR2-NVM channel."""

    #: Bits per command signal packet: operation type (2-4) + row buffer
    #: address (2) + target address (7-15), per Section V-B.
    PACKET_BITS = 20

    def __init__(self, params: PramTimingParams = PramTimingParams()) -> None:
        self.params = params

    @property
    def clock_ns(self) -> float:
        """PHY clock period (matches the PRAM's 400 MHz)."""
        return self.params.tck_ns

    def command_cost(self, packets: int = 1) -> float:
        """Time to ship ``packets`` command packets.

        DDR signalling moves one 20-bit packet per clock edge pair, so
        each packet costs one tCK on the command lines.
        """
        if packets < 0:
            raise ValueError(f"negative packet count: {packets}")
        return packets * self.params.tck_ns

    def register_write_cost(self) -> float:
        """Cost of one overlay-window register poke (one packet + data)."""
        return self.command_cost(1)
