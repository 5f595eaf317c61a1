"""Accelerator statistics helpers: series summation, residency."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.accel import Accelerator, ComputeOp, LoadOp
from repro.accel.accelerator import _sum_series
from repro.accel.pe import STATE_ACTIVE, STATE_IDLE, STATE_SLEEP
from repro.energy import EnergyModel
from repro.sim import TimeSeries


class TestSumSeries:
    def test_pointwise_sum(self):
        a = TimeSeries("a")
        a.record(0.0, 1.0)
        a.record(10.0, 2.0)
        b = TimeSeries("b")
        b.record(5.0, 3.0)
        total = _sum_series([a, b], "total")
        assert total.value_at(0.0) == 1.0
        assert total.value_at(5.0) == 4.0
        assert total.value_at(10.0) == 5.0

    def test_empty_inputs(self):
        total = _sum_series([TimeSeries("a")], "total")
        assert len(total) == 0


def _reference_sum_series(series, name):
    """Per-time lookups of every series: the sweep's reference."""
    times = sorted({t for s in series for t in s.times})
    total = TimeSeries(name)
    for time in times:
        total.record(time, sum(s.value_at(time) for s in series))
    return total


#: One step function: non-decreasing sample times drawn from a small
#: grid (so series share and repeat timestamps), arbitrary levels.
step_functions = st.lists(
    st.tuples(st.integers(min_value=0, max_value=12),
              st.floats(min_value=-1e3, max_value=1e3)),
    max_size=12).map(lambda points: sorted(points,
                                           key=lambda point: point[0]))


@given(st.lists(step_functions, max_size=6))
@settings(max_examples=200, deadline=None)
def test_sweep_sums_exactly_like_per_time_lookups(samples):
    series = []
    for index, points in enumerate(samples):
        steps = TimeSeries(f"s{index}")
        for time, value in points:
            steps.record(time * 0.1, value)
        series.append(steps)
    total = _sum_series(series, "total")
    reference = _reference_sum_series(series, "total")
    assert total.name == reference.name
    assert total.times == reference.times
    assert total.values == reference.values


class TestStateResidency:
    def test_partitions_the_window(self):
        activity = TimeSeries("pe")
        activity.record(0.0, STATE_SLEEP)
        activity.record(10.0, STATE_IDLE)
        activity.record(30.0, STATE_ACTIVE)
        residency = activity.residency(0.0, 50.0)
        assert residency[STATE_SLEEP] == pytest.approx(10.0)
        assert residency[STATE_IDLE] == pytest.approx(20.0)
        assert residency[STATE_ACTIVE] == pytest.approx(20.0)
        assert sum(residency.values()) == pytest.approx(50.0)

    def test_window_subset(self):
        activity = TimeSeries("pe")
        activity.record(0.0, STATE_ACTIVE)
        residency = activity.residency(20.0, 30.0)
        assert residency[STATE_ACTIVE] == pytest.approx(10.0)

    def test_empty_window(self):
        residency = TimeSeries("pe").residency(5.0, 5.0)
        assert sum(residency.values()) == 0.0


class TestPowerSeries:
    def test_levels_match_energy_model(self, sim, backend):
        model = EnergyModel()
        accel = Accelerator(sim, backend)
        proc = sim.process(accel.execute(
            [[ComputeOp(5_000)]], flush_backend=False))
        sim.run()
        assert proc.ok
        power = accel.power_series(model)
        observed = set(round(v, 4) for v in power.values)
        floor = round(8 * model.pe_sleep_w, 4)
        assert floor in observed
        assert max(power.values) <= 8 * model.pe_active_w + 1e-9


class TestExecutionResultHelpers:
    def test_normalized_to_rejects_zero_baseline(self):
        from repro.systems.base import ExecutionResult
        from repro.sim import Breakdown
        from repro.energy import EnergyAccount

        def make(total):
            return ExecutionResult(
                system="x", workload="w", total_ns=total, phase_ns={},
                time_breakdown=Breakdown(), energy=EnergyAccount(),
                bytes_processed=0 if total == 0 else 100,
                accel_stats=None, aggregate_ipc=TimeSeries(),
                core_power=TimeSeries())

        good = make(100.0)
        zero = make(0.0)
        assert zero.bandwidth_mb_s == 0.0
        with pytest.raises(ValueError):
            good.normalized_to(zero)

    def test_ideal_resident_attributes(self):
        from repro.systems import build_system

        system = build_system("Ideal-resident")
        assert system.heterogeneous is True
        assert system.host_coordinated is False
        assert system.name == "Ideal-resident"
