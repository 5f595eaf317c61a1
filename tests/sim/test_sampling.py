"""Engine-driven window sampling: hook wiring and window semantics."""

import types

import pytest

from repro.sim import KernelScope, Simulator, TimeSeries, use_sampling
from repro.sim.sampling import current_sampling
from repro.telemetry.metrics import MetricsRegistry, use_metrics
from repro.telemetry.timeseries import Sampler, SamplingConfig


def _sampler(window_ns=10.0):
    registry = MetricsRegistry()
    return Sampler(registry, window_ns), registry


def _tracked(sampler, path):
    """A level series whose window means the sampler records at ``path``."""
    level = TimeSeries("level")
    sampler.track(path, level)
    return level


def _adjust(level, now, delta):
    """The level changes by ``delta`` at ``now``."""
    level.record(now, level.value_at(now) + delta)


def _sampled(sampler, **scope):
    """A simulator whose scope hands it ``sampler``."""
    provider = types.SimpleNamespace(create_sampler=lambda: sampler)
    return Simulator(scope=KernelScope(sampling=provider, **scope))


class TestAmbientProvider:
    def test_default_is_none(self):
        assert current_sampling() is None
        assert Simulator().sampler is None

    def test_scope_installs_and_restores(self):
        config = SamplingConfig(window_ns=50.0)
        with use_sampling(config):
            assert current_sampling() is config
        assert current_sampling() is None

    def test_no_registry_means_no_sampler(self):
        # Sampling without metrics costs nothing: the provider declines.
        with use_sampling(SamplingConfig()):
            assert Simulator().sampler is None

    def test_registry_plus_scope_mints_one_sampler_per_simulator(self):
        registry = MetricsRegistry()
        with use_metrics(registry), use_sampling(SamplingConfig()):
            first, second = Simulator(), Simulator()
        assert isinstance(first.sampler, Sampler)
        assert isinstance(second.sampler, Sampler)
        assert first.sampler is not second.sampler

    def test_explicit_sampler_wins_over_ambient(self):
        sampler, _ = _sampler()
        with use_metrics(MetricsRegistry()), use_sampling(SamplingConfig()):
            assert _sampled(sampler).sampler is sampler

    def test_config_validates_window(self):
        with pytest.raises(ValueError):
            SamplingConfig(window_ns=0.0)
        with pytest.raises(ValueError):
            Sampler(MetricsRegistry(), window_ns=float("inf"))


class TestWindowSemantics:
    def test_duty_cycle_means(self):
        # Level 1 for 7 ns then 0 for 3 ns, each 10 ns window -> 0.7.
        sampler, registry = _sampler(window_ns=10.0)
        sim = _sampled(sampler)
        level = _tracked(sampler, "q.depth")

        def duty():
            for _ in range(3):
                _adjust(level, sim.now, 1.0)
                yield sim.timeout(7.0)
                _adjust(level, sim.now, -1.0)
                yield sim.timeout(3.0)

        sim.process(duty())
        sim.run()
        # The run ends exactly on the t=30 boundary, closing all three.
        series = registry.series("q.depth")
        assert series.times == [0.0, 10.0, 20.0]
        assert series.values == pytest.approx([0.7, 0.7, 0.7])

    def test_boundary_instant_update_belongs_to_next_window(self):
        # The engine advances the sampler *before* events at an instant
        # run, so a level change at exactly t=10 cannot leak into the
        # [0, 10) window.
        sampler, registry = _sampler(window_ns=10.0)
        sim = _sampled(sampler)
        level = _tracked(sampler, "q.depth")

        def jump():
            yield sim.timeout(10.0)
            level.record(sim.now, 5.0)
            yield sim.timeout(10.0)

        sim.process(jump())
        sim.run()
        series = registry.series("q.depth")
        assert series.times == [0.0, 10.0]
        assert series.values == pytest.approx([0.0, 5.0])

    def test_partial_final_window_is_dropped(self):
        sampler, registry = _sampler(window_ns=10.0)
        sim = _sampled(sampler)
        level = _tracked(sampler, "q.depth")

        def run():
            level.record(sim.now, 1.0)
            yield sim.timeout(25.0)  # ends mid-window

        sim.process(run())
        sim.run()
        # [0,10) and [10,20) close; [20,25) would skew the plot.
        assert registry.series("q.depth").times == [0.0, 10.0]

    def test_run_until_flushes_trailing_windows(self):
        sampler, registry = _sampler(window_ns=10.0)
        sim = _sampled(sampler)
        level = _tracked(sampler, "q.depth")

        def run():
            level.record(sim.now, 2.0)
            yield sim.timeout(5.0)  # last event at t=5

        sim.process(run())
        sim.run(until=30.0)
        series = registry.series("q.depth")
        assert series.times == [0.0, 10.0, 20.0]
        assert series.values == pytest.approx([2.0, 2.0, 2.0])

    def test_watch_gauge_samples_at_boundaries(self):
        sampler, registry = _sampler(window_ns=10.0)
        sim = _sampled(sampler)
        depth = {"value": 0.0}
        sampler.watch_gauge("hints", lambda: depth["value"])

        def run():
            yield sim.timeout(15.0)
            depth["value"] = 4.0
            yield sim.timeout(15.0)

        sim.process(run())
        sim.run()
        series = registry.series("hints")
        # Boundary at 10 reads 0.0 (set happens at 15); 20 and 30, 4.0.
        assert series.times == [0.0, 10.0, 20.0]
        assert series.values == [0.0, 4.0, 4.0]

    def test_no_drift_over_many_windows(self):
        # Boundaries come from an integer index, not repeated addition:
        # after 10k windows of 0.1 ns the boundary is still exact.
        sampler, registry = _sampler(window_ns=0.1)
        sim = _sampled(sampler)
        _tracked(sampler, "q.depth")

        def run():
            yield sim.timeout(1000.0)

        sim.process(run())
        sim.run()
        series = registry.series("q.depth")
        assert series.times[-1] == pytest.approx(9999 * 0.1)

    def test_shuffled_drain_samples_identically(self):
        def trace(tiebreak_seed):
            sampler, registry = _sampler(window_ns=10.0)
            sim = _sampled(sampler, tiebreak_seed=tiebreak_seed)
            level = _tracked(sampler, "q.depth")

            def agent(delay):
                yield sim.timeout(delay)
                _adjust(level, sim.now, 1.0)
                yield sim.timeout(12.0)
                _adjust(level, sim.now, -1.0)

            for _ in range(4):  # four agents, same timestamps
                sim.process(agent(4.0))
            sim.run()
            series = registry.series("q.depth")
            return (list(series.times), list(series.values))

        fifo = trace(None)
        assert trace(7) == fifo
        assert trace(1234) == fifo
