#!/usr/bin/env python
"""Start-gap wear leveling: spreading a hot row across the PRAM.

PRAM cells endure a bounded number of SET/RESET cycles.  Section VII
notes DRAM-less "can integrate traditional wear levellers ... such as
start-gap".  This example hammers one logical row and compares the
physical write distribution with the leveler off and on.

Run:  python examples/wear_leveling.py
"""

from repro.controller import PramSubsystem
from repro.pram import PramGeometry
from repro.sim import Simulator

# A deliberately tiny partition (16 rows) so full start-gap rotations
# complete within a short demo: the gap takes lines+1 moves to sweep
# the region once and shifts the hot line by one row per sweep.
GEOMETRY = PramGeometry(channels=1, modules_per_channel=1,
                        partitions_per_bank=2, tiles_per_partition=1,
                        bitlines_per_tile=256, wordlines_per_tile=16)
HOT_WRITES = 600
GAP_INTERVAL = 2  # aggressive, to make migration visible quickly


def hammer(wear_leveling: bool):
    sim = Simulator()
    subsystem = PramSubsystem(sim, geometry=GEOMETRY,
                              wear_leveling=wear_leveling,
                              gap_write_interval=GAP_INTERVAL)

    def driver():
        for i in range(HOT_WRITES):
            payload = bytes([i % 255 + 1]) * 32
            yield sim.process(subsystem.write(0, payload))
        data = yield from subsystem.read(0, 32)
        assert data == bytes([(HOT_WRITES - 1) % 255 + 1]) * 32

    proc = sim.process(driver())
    sim.run()
    assert proc.ok, proc.value

    tracker = subsystem.modules[0][0].cell_tracker(0)
    per_row = tracker.writes_per_row()
    moves = sum(channel.gap_moves for channel in subsystem.channels)
    return sim.now, per_row, moves


def main() -> None:
    for enabled, label in ((False, "wear leveling OFF"),
                           (True, f"wear leveling ON (psi={GAP_INTERVAL})")):
        elapsed, per_row, moves = hammer(enabled)
        hottest = max(per_row.values())
        print(f"{label}:")
        print(f"  {HOT_WRITES} programs to one logical row in "
              f"{elapsed / 1e6:.2f} ms ({moves} gap moves)")
        print(f"  physical rows touched: {len(per_row)}, "
              f"hottest row absorbed: {hottest} word-programs")
        lifetime_gain = (HOT_WRITES * 8) / hottest
        print(f"  worst-case wear vs unleveled: {1 / lifetime_gain:.1%} "
              f"(~{lifetime_gain:.1f}x lifetime for this pattern)\n")


if __name__ == "__main__":
    main()
