"""Absolute-time deadline timers on the simulator."""

import pytest

from repro.sim import Simulator


def test_deadline_fires_at_the_absolute_instant():
    sim = Simulator()
    seen = []

    def process():
        yield sim.timeout(10.0)
        yield sim.deadline(25.0)
        seen.append(sim.now)

    sim.process(process())
    sim.run()
    assert seen == [25.0]


def test_deadline_at_current_instant_fires_immediately():
    sim = Simulator()
    seen = []

    def process():
        yield sim.timeout(5.0)
        yield sim.deadline(5.0)
        seen.append(sim.now)

    sim.process(process())
    sim.run()
    assert seen == [5.0]


def test_deadline_carries_a_value():
    sim = Simulator()
    seen = []

    def process():
        seen.append((yield sim.deadline(3.0, "payload")))

    sim.process(process())
    sim.run()
    assert seen == ["payload"]


def test_deadline_in_the_past_is_rejected():
    sim = Simulator()

    def process():
        yield sim.timeout(10.0)
        sim.deadline(9.0)

    done = sim.process(process())
    sim.run()
    assert not done.ok
    with pytest.raises(ValueError, match="already"):
        raise done.value


def test_deadline_at_nan_is_rejected():
    sim = Simulator()
    with pytest.raises(ValueError, match="NaN"):
        sim.deadline(float("nan"))


def test_deadline_fires_at_exactly_the_instant_asked_for():
    # now + (at - now) rounds to ...4884763 here; the deadline must not.
    now, at = 548968.8427196741, 1254589717.4884765
    assert now + (at - now) != at
    sim = Simulator()
    seen = []

    def process():
        yield sim.timeout(now)
        assert sim.now == now
        yield sim.deadline(at)
        seen.append(sim.now)

    sim.process(process())
    sim.run()
    assert seen == [at]


@pytest.mark.parametrize("hook", ["sanitizer", "hostprof"])
def test_deadline_is_exact_under_kernel_hooks(hook):
    from repro.analysis import racecheck
    from repro.sim.hostprof import use_hostprof
    from repro.telemetry.hostprof import HostProfiler

    now, at = 548968.8427196741, 1254589717.4884765
    profiler = HostProfiler()
    scope = (racecheck.sanitize() if hook == "sanitizer"
             else use_hostprof(profiler))
    seen = []
    with scope:
        sim = Simulator()

        def process():
            yield sim.timeout(now)
            yield sim.deadline(at)
            seen.append(sim.now)

        sim.process(process())
        sim.run()
    assert seen == [at]
    if hook == "hostprof":
        # The census sees the deadline's schedule as a Timeout's.
        assert profiler.census()["schedules"]["Timeout"] == 2


def test_deadline_now_queues_behind_events_already_ready():
    sim = Simulator()
    order = []

    def process():
        yield sim.timeout(5.0)
        ready = sim.event()
        ready.callbacks.append(lambda _: order.append("ready"))
        ready.succeed()
        due = sim.deadline(sim.now)
        due.callbacks.append(lambda _: order.append("deadline"))
        yield due
        order.append(("resumed", sim.now))

    sim.process(process())
    sim.run()
    assert order == ["ready", "deadline", ("resumed", 5.0)]
