"""scripts/cell_digests.py: an exact digest of every simulated cell.

The identity gate compares these digests between two trees, so a
digest must be the same on every run of the same tree and must move
when any float of a result moves, even where a report rounded to three
significant figures does not.
"""

import dataclasses
import importlib.util
import math
import pathlib

import pytest

from repro.accel import mcu
from repro.experiments.runner import QUICK

SCRIPT = (pathlib.Path(__file__).resolve().parents[2]
          / "scripts" / "cell_digests.py")

#: A cheap QUICK cell that goes through the accelerator's MCU.
CELL = "matrix/gemver/DRAM-less"


@pytest.fixture(scope="module")
def cell_digests():
    spec = importlib.util.spec_from_file_location("cell_digests", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _cell(cell_digests, key):
    return {cell.key: cell for cell in cell_digests.run_all_cells(QUICK)}[key]


def test_run_all_declares_42_quick_cells(cell_digests):
    cells = cell_digests.run_all_cells(QUICK)
    assert len(cells) == len({cell.key for cell in cells}) == 42


def test_a_cell_digest_is_stable_and_sees_the_last_bit(cell_digests,
                                                        monkeypatch):
    cell = _cell(cell_digests, CELL)
    result = cell_digests.cell_result(cell, QUICK)
    digest = cell_digests.digest(result)
    assert cell_digests.digest(cell_digests.cell_result(cell, QUICK)) == (
        digest)
    # One ulp of the 20 ns constant itself (3.6e-15 ns) vanishes when
    # it is added to a clock past 64 ns; one ulp of the cell's clock is
    # the smallest nudge of the MCU overhead that reaches its result.
    monkeypatch.setattr(mcu, "MCU_OVERHEAD_NS",
                        mcu.MCU_OVERHEAD_NS + math.ulp(result.total_ns))
    nudged = cell_digests.cell_result(cell, QUICK)
    assert cell_digests.digest(nudged) != digest
    # ... which a three-significant-figure report does not show.
    for metric in ("total_ns", "bandwidth_mb_s", "energy_mj"):
        assert (f"{getattr(nudged, metric):.3g}"
                == f"{getattr(result, metric):.3g}")


def test_canonical_is_exact_and_order_free(cell_digests):
    canonical = cell_digests.canonical

    @dataclasses.dataclass
    class Row:
        latency: float
        counts: dict

    class Slotted:
        __slots__ = ("value",)

        def __init__(self, value):
            self.value = value

    assert canonical(0.1 + 0.2) == "0.30000000000000004"
    assert canonical(-0.0) != canonical(0.0)
    assert canonical({"b": 1, "a": 2}) == canonical({"a": 2, "b": 1})
    assert canonical({3, 1, 2}) == canonical({2, 3, 1})
    assert canonical([1, 2]) != canonical([2, 1])
    assert canonical(Row(1.5, {1: 2})) != canonical(Row(1.5, {1: 3}))
    assert canonical(Slotted(1.0)) != canonical(Slotted(
        math.nextafter(1.0, 2.0)))
    with pytest.raises(TypeError):
        canonical(len)
