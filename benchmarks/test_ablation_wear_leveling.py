"""Ablation: start-gap wear leveling (the Section VII extension).

Hammers a small set of logical rows and measures (a) the performance
overhead and (b) the endurance spread (max writes per physical line /
mean) with and without the leveler.
"""

from repro.controller import PramSubsystem
from repro.pram import PramGeometry
from repro.sim import Simulator

# Tiny partitions (16 rows) so full start-gap rotations complete
# within the benchmark's write budget.
GEOMETRY = PramGeometry(channels=2, modules_per_channel=2,
                        partitions_per_bank=4, tiles_per_partition=1,
                        bitlines_per_tile=256, wordlines_per_tile=16)

HOT_WRITES = 400


def hammer(wear_leveling: bool, interval: int = 8):
    sim = Simulator()
    subsystem = PramSubsystem(sim, geometry=GEOMETRY,
                              wear_leveling=wear_leveling,
                              gap_write_interval=interval)

    def driver():
        for i in range(HOT_WRITES):
            payload = bytes([i % 255 + 1]) * 32
            yield sim.process(subsystem.write(0, payload))

    sim.process(driver())
    sim.run()
    tracker = subsystem.modules[0][0].cell_tracker(0)
    per_row = tracker.writes_per_row()
    hottest = max(per_row.values())
    return sim.now, hottest, len(per_row)


def test_ablation_wear_leveling(benchmark):
    result = benchmark.pedantic(
        lambda: {"off": hammer(False), "on": hammer(True)},
        rounds=1, iterations=1)
    time_off, hottest_off, rows_off = result["off"]
    time_on, hottest_on, rows_on = result["on"]
    # Without leveling every program lands on one physical row.
    assert rows_off == 1
    # With start-gap the hot line rotates across the whole region and
    # the worst-wearing physical row absorbs a fraction of the writes.
    assert rows_on >= 8
    assert hottest_on < hottest_off * 0.5
    # The amortized cost of gap moves stays bounded at psi=8.
    assert time_on <= time_off * 1.40
