"""Order sentinels: pinned results of cells that move with event order.

A speed change may remove events only if every output stays
byte-identical (DESIGN §6.1).  Removing the events of a hold keeps its
start and finish instants but wakes the holder at another point of the
finish instant, which can reorder same-instant side effects.  Three
cells at the default config are known to move when that happens:

* durbin on Hetero at seed 1 moves when the host core's holds wake
  elsewhere in their instant;
* jaco1D on Integrated-SLC at seed 2 moves when the flash planes' do;
* floyd on DRAM-less at seed 1 moved when the PRAM channel's chunks and
  bus holds lost their zero-delay relays (its total time by 40 ns in
  1.59 ms, its energy in the fifth significant figure).

At the ``--quick`` config the same changes moved nothing at seeds 1-5,
so those cells run at the default config.  Every system on gemver and
doitg at ``QUICK`` covers the remaining devices.  The fig13 replay of
doitg under all four policies at ``QUICK`` pins the PRAM write path on
its own: the staging and execution of every program, the write-hint
store and the pre-RESET drain (304 pre-RESETs under selective-erasing
and final each).

The first two digests were taken with every storage hold still on a
``Resource``, the floyd digest with the chunks already starting and
finishing in place, the fig13 digest with the overlay window still
encoding each program's target into a flat register address and the
hint store still holding one composed address per row.  Re-pin them
only in a change that means to move results, and say so in its
description.
"""

import dataclasses
import hashlib
import json

from repro.experiments.fig13_schedulers import POLICIES, subsystem_run
from repro.experiments.runner import QUICK, ExperimentConfig
from repro.systems import SYSTEM_NAMES, build_system

#: SHA-256 of durbin on Hetero, default config, seed 1.
PINNED_HOST_CORE_CELL = (
    "00b82fcf36bb692fd386ee479c8998aaafd91bea4e5dbdb20c3d4f85919a181f")
#: SHA-256 of jaco1D on Integrated-SLC, default config, seed 2.
PINNED_FLASH_PLANES_CELL = (
    "bad44df6d49929441d2fed0a4f52346274ddfe2d90240f5e4ee62ec638437e20")
#: SHA-256 of floyd on DRAM-less, default config, seed 1.
PINNED_PRAM_CHANNEL_CELL = (
    "109d4be7541e7f2162e2b26ce5c1a1feb122b6a2531e039a7a7dcce4b2d1fd96")
#: SHA-256 of every system on gemver and doitg at QUICK, seed 1.
PINNED_QUICK_MATRIX = (
    "7a611b31101576ef6198395882b4dc32524c77d9273ac1307a1b4ed0137a8419")
#: SHA-256 of fig13's doitg replay under all four policies, QUICK, seed 1.
PINNED_FIG13_WRITE_PATH = (
    "88cabf88a35218dbf609f2e5f279c44ae711f82a57527c2560d0312c37abdc8e")


def _canonical(result):
    """Every simulated output of one run that a figure reads."""
    stats = result.accel_stats
    return {
        "total_ns": result.total_ns,
        "phase_ns": result.phase_ns,
        "time_breakdown": result.time_breakdown.as_dict(),
        "energy_nj": result.energy.by_category(),
        "bytes": result.bytes_processed,
        "extras": result.extras,
        "accel": {
            field.name: getattr(stats, field.name)
            for field in dataclasses.fields(stats)
            if field.name not in ("aggregate_ipc", "pe_residency")},
        "pe_residency": [sorted(residency.items())
                         for residency in stats.pe_residency],
        "ipc": [stats.aggregate_ipc.times, stats.aggregate_ipc.values],
        "power": [result.core_power.times, result.core_power.values],
    }


def _digest(results):
    text = json.dumps(results, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _run(system, workload, config):
    result = build_system(system, config.system_config()).run(
        config.bundle(workload))
    return _canonical(result)


def test_host_core_cell():
    cell = _run("Hetero", "durbin", ExperimentConfig(seed=1))
    assert _digest(cell) == PINNED_HOST_CORE_CELL


def test_flash_planes_cell():
    cell = _run("Integrated-SLC", "jaco1D", ExperimentConfig(seed=2))
    assert _digest(cell) == PINNED_FLASH_PLANES_CELL


def test_pram_channel_cell():
    cell = _run("DRAM-less", "floyd", ExperimentConfig(seed=1))
    assert _digest(cell) == PINNED_PRAM_CHANNEL_CELL


def test_quick_matrix():
    cells = {f"{workload}/{system}": _run(system, workload, QUICK)
             for workload in ("gemver", "doitg")
             for system in SYSTEM_NAMES}
    assert len(cells) == 22
    assert _digest(cells) == PINNED_QUICK_MATRIX


def test_fig13_write_path():
    bundle = QUICK.bundle("doitg")
    runs = {}
    for policy in POLICIES:
        run = subsystem_run(bundle, policy)
        sketch = run.sketch
        runs[policy.value] = {
            "mbps": run.mbps, "count": sketch.count,
            "clamped": sketch.clamped, "min": sketch.min_value,
            "max": sketch.max_value,
            "buckets": sorted(sketch._counts.items())}
    assert _digest(runs) == PINNED_FIG13_WRITE_PATH
