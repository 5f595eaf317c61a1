"""Tests of the benchmark harness itself (not part of the tier-1 suite).

Run from the repository root::

    PYTHONPATH=src python3 -m pytest bench -q
"""

from __future__ import annotations

from bench import calibration, workloads
from bench.layers import layer_map, layer_totals
from bench.worker import (
    ControllerCounters,
    Outcome,
    Stopwatch,
    TracedPass,
    check_cells,
    median_sum,
    timed_pass,
    traced_pass,
)
from repro.telemetry import HostProfiler


def test_layer_map_names_each_component_by_its_package():
    layers = layer_map()
    assert layers["ChannelController"] == "controller"
    assert layers["PramSubsystem"] == "controller"
    assert layers["subsystem_run"] == "experiments"
    assert layers["kernel"] == "sim"
    assert layers["Resource"] == "sim"
    assert layers["ServerPe"] == "accel"
    assert layers["PramSsd"] == "storage"
    assert layers["ServiceFrontend"] == "service"


def test_layer_map_leaves_out_names_defined_in_two_packages():
    # sparkline is defined in repro.experiments.plot and
    # repro.telemetry.timeseries.
    assert "sparkline" not in layer_map()


def test_layer_totals_sums_by_layer_and_lists_unmapped():
    totals, unmapped = layer_totals(
        {"ChannelController": 5, "PramSubsystem": 2, "kernel": 3,
         "Mystery": 7, "Alien": 1},
        {"ChannelController": "controller", "PramSubsystem": "controller",
         "kernel": "sim"})
    assert totals == {"controller": 7, "sim": 3}
    assert unmapped == ["Alien", "Mystery"]


def test_wall_clock_sums_each_cells_median_normalized_repetition():
    outcomes = [[Outcome(9.0, reference_s=value) for value in (3.0, 1.0, 2.0)],
                [Outcome(9.0, reference_s=value) for value in (5.0, 6.0, 4.0)]]
    assert median_sum(outcomes) == 2.0 + 5.0


def test_normalize_scales_by_the_calibration_runs_around_a_measurement():
    reference = calibration.REFERENCE_S
    assert calibration.normalize(3.0, reference, reference) == 3.0
    # A host running at half speed doubles both the cell and the kernel.
    assert calibration.normalize(6.0, 2 * reference, 2 * reference) == 3.0
    assert calibration.normalize(3.0, reference, 3 * reference) == 1.5


def test_timed_pass_runs_at_least_three_repetitions():
    calls = []
    cell = workloads.Cell("count", lambda: calls.append(1) or len(calls))
    outcomes = timed_pass([cell], seconds=0)
    assert len(calls) == 3
    assert [outcome.summary for outcome in outcomes[0]] == [1, 2, 3]


def test_canonical_form_ignores_key_order_and_container_type():
    assert (workloads.canonical({"b": (1, 2.5), "a": {"y": 1, "x": 0}})
            == workloads.canonical({"a": {"x": 0, "y": 1}, "b": [1, 2.5]}))


def test_canonical_form_keeps_every_float_digit():
    assert workloads.canonical(0.1 + 0.2) != workloads.canonical(0.3)
    assert workloads.canonical(1e-300) == "1e-300"


def test_fingerprint_is_48_bits_and_order_free():
    first = workloads.fingerprint({"a": "1", "b": "2"})
    assert first == workloads.fingerprint({"b": "2", "a": "1"})
    assert first != workloads.fingerprint({"a": "1", "b": "3"})
    assert 0 <= first < 2 ** 48


def test_check_cells_reports_errors_and_unstable_results():
    cells = [workloads.Cell(name, lambda: None)
             for name in ("steady", "unstable", "raises")]
    timed = [[Outcome(1.0, canonical="x"), Outcome(1.0, canonical="x")],
             [Outcome(1.0, canonical="x"), Outcome(1.0, canonical="y")],
             [Outcome(1.0, error="raised ValueError: bad")]]
    traced = TracedPass([Outcome(1.0, canonical="x")] * 3, HostProfiler(),
                        ControllerCounters(), run_ns=0, failures={})
    failures = check_cells(cells, timed, traced)
    assert set(failures) == {"unstable", "raises"}
    assert failures["raises"] == "raised ValueError: bad"


def test_every_component_of_a_traced_suite_quick_pass_maps_to_a_layer():
    cells = workloads.build("suite-quick", seed=1)
    traced = traced_pass(cells, Stopwatch())
    assert all(outcome.error is None for outcome in traced.outcomes)
    assert traced.failures == {}
    _, unmapped = layer_totals(traced.profiler.component_totals(),
                               layer_map())
    assert unmapped == []

