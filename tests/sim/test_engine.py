"""Tests for the discrete-event kernel: clock, ordering, run bounds."""

import pytest

from repro.sim import Simulator


def test_clock_starts_at_zero():
    assert Simulator().now == 0.0


def test_timeout_advances_clock():
    sim = Simulator()
    log = []

    def proc():
        yield sim.timeout(10.0)
        log.append(sim.now)

    sim.process(proc())
    sim.run()
    assert log == [10.0]
    assert sim.now == 10.0


def test_events_fire_in_time_order():
    sim = Simulator()
    log = []

    def proc(delay, tag):
        yield sim.timeout(delay)
        log.append(tag)

    sim.process(proc(30.0, "c"))
    sim.process(proc(10.0, "a"))
    sim.process(proc(20.0, "b"))
    sim.run()
    assert log == ["a", "b", "c"]


def test_ties_break_in_fifo_schedule_order():
    sim = Simulator()
    log = []

    def proc(tag):
        yield sim.timeout(5.0)
        log.append(tag)

    for tag in ("first", "second", "third"):
        sim.process(proc(tag))
    sim.run()
    assert log == ["first", "second", "third"]


def test_run_until_stops_the_clock_exactly():
    sim = Simulator()

    def proc():
        yield sim.timeout(100.0)

    sim.process(proc())
    sim.run(until=40.0)
    assert sim.now == 40.0
    sim.run()
    assert sim.now == 100.0


def test_run_until_in_the_past_is_an_error():
    sim = Simulator()

    def proc():
        yield sim.timeout(50.0)

    sim.process(proc())
    sim.run()
    with pytest.raises(ValueError):
        sim.run(until=10.0)


def test_step_on_empty_heap_raises():
    with pytest.raises(RuntimeError):
        Simulator().step()


def test_peek_reports_next_event_time():
    sim = Simulator()
    sim.timeout(25.0)
    assert sim.peek() == 25.0


def test_peek_on_empty_heap_is_infinite():
    assert Simulator().peek() == float("inf")


def test_nested_processes_join():
    sim = Simulator()

    def child():
        yield sim.timeout(7.0)
        return 42

    def parent():
        result = yield sim.process(child())
        assert result == 42
        return sim.now

    proc = sim.process(parent())
    sim.run()
    assert proc.value == 7.0


def test_negative_timeout_rejected():
    sim = Simulator()
    with pytest.raises(ValueError):
        sim.timeout(-1.0)


def test_zero_timeout_runs_same_instant():
    sim = Simulator()
    log = []

    def proc():
        yield sim.timeout(0.0)
        log.append(sim.now)

    sim.process(proc())
    sim.run()
    assert log == [0.0]


def test_all_of_waits_for_every_event():
    sim = Simulator()
    finished = []

    def proc():
        timeouts = [sim.timeout(t) for t in (5.0, 15.0, 10.0)]
        yield sim.all_of(timeouts)
        finished.append(sim.now)

    sim.process(proc())
    sim.run()
    assert finished == [15.0]


def test_any_of_waits_for_first_event():
    sim = Simulator()
    finished = []

    def proc():
        timeouts = [sim.timeout(t) for t in (5.0, 15.0, 10.0)]
        yield sim.any_of(timeouts)
        finished.append(sim.now)

    sim.process(proc())
    sim.run()
    assert finished == [5.0]


def test_process_exception_propagates_to_joiner():
    sim = Simulator()

    def child():
        yield sim.timeout(1.0)
        raise RuntimeError("boom")

    def parent():
        with pytest.raises(RuntimeError, match="boom"):
            yield sim.process(child())
        return "handled"

    proc = sim.process(parent())
    sim.run()
    assert proc.value == "handled"


def test_yielding_non_event_raises_inside_process():
    sim = Simulator()

    def proc():
        with pytest.raises(TypeError):
            yield "not an event"
        return "ok"

    result = sim.process(proc())
    sim.run()
    assert result.value == "ok"


def test_event_succeed_delivers_value():
    sim = Simulator()
    gate = sim.event("gate")
    seen = []

    def waiter():
        value = yield gate
        seen.append(value)

    def opener():
        yield sim.timeout(3.0)
        gate.succeed("open sesame")

    sim.process(waiter())
    sim.process(opener())
    sim.run()
    assert seen == ["open sesame"]


def test_event_double_trigger_rejected():
    sim = Simulator()
    gate = sim.event()
    gate.succeed()
    with pytest.raises(RuntimeError):
        gate.succeed()


def test_event_fail_requires_exception():
    sim = Simulator()
    with pytest.raises(TypeError):
        sim.event().fail("not an exception")


def test_yield_already_processed_event_resumes():
    sim = Simulator()
    log = []

    def proc():
        t = sim.timeout(1.0, value="past")
        yield sim.timeout(5.0)
        value = yield t  # t fired at t=1, long processed
        log.append((sim.now, value))

    sim.process(proc())
    sim.run()
    assert log == [(5.0, "past")]


def test_interrupt_wakes_a_sleeping_process():
    from repro.sim import Interrupt

    sim = Simulator()
    log = []

    def sleeper():
        try:
            yield sim.timeout(1000.0)
        except Interrupt as interrupt:
            log.append((sim.now, interrupt.cause))

    def interrupter(target):
        yield sim.timeout(10.0)
        target.interrupt("wake up")

    target = sim.process(sleeper())
    sim.process(interrupter(target))
    sim.run()
    assert log == [(10.0, "wake up")]


def test_interrupt_dead_process_rejected():
    sim = Simulator()

    def quick():
        yield sim.timeout(1.0)

    proc = sim.process(quick())
    sim.run()
    with pytest.raises(RuntimeError):
        proc.interrupt()


def test_process_requires_generator():
    from repro.sim import Process

    sim = Simulator()
    with pytest.raises(TypeError):
        Process(sim, "not a generator")


def test_completion_of_an_externally_triggered_process_rejected():
    sim = Simulator()

    def quick():
        yield sim.timeout(1.0)

    proc = sim.process(quick())
    proc.succeed("early")
    with pytest.raises(RuntimeError, match="already been triggered"):
        sim.run()


# ----------------------------------------------------------------------
# fork_join: children that start and finish in place
# ----------------------------------------------------------------------
def test_fork_join_starts_children_in_the_creating_step():
    from repro.analysis.determinism import trace_of

    log = []

    def workload():
        sim = Simulator()

        def child(tag, delay):
            log.append((tag, "start", sim.now))
            yield sim.timeout(delay)
            return tag

        def parent():
            join = sim.fork_join([child("a", 2.0), child("b", 1.0)])
            # Both first steps ran before the parent yields the join.
            log.append(("parent", "forked", sim.now))
            results = yield join
            log.append(("parent", results, sim.now))

        sim.process(parent())
        sim.run()

    labels = [label for _, label in trace_of(workload)]
    assert log[:3] == [("a", "start", 0.0), ("b", "start", 0.0),
                       ("parent", "forked", 0.0)]
    assert log[3] == ("parent", ["a", "b"], 2.0)
    # No child bootstrap and no child completion: the parent's
    # bootstrap, the two timeouts, the join and the parent's completion.
    assert labels == ["parent.bootstrap", "Timeout(1.0)", "Timeout(2.0)",
                      "Join:parent", "parent"]


def test_fork_join_child_finishing_in_its_first_step():
    sim = Simulator()

    def instant(value):
        return value
        yield  # pragma: no cover - makes this a generator

    def parent():
        return (yield sim.fork_join([instant(1), instant(2)]))

    proc = sim.process(parent())
    sim.run()
    assert proc.value == [1, 2]
    assert sim.now == 0.0


def test_fork_join_of_nothing_triggers_at_once():
    sim = Simulator()

    def parent():
        return (yield sim.fork_join([]))

    proc = sim.process(parent())
    sim.run()
    assert proc.value == []


def test_fork_join_fails_with_the_first_child_failure():
    sim = Simulator()
    finished = []

    def child(delay, fail):
        yield sim.timeout(delay)
        if fail:
            raise RuntimeError(f"boom at {delay}")
        finished.append(delay)

    def parent():
        with pytest.raises(RuntimeError, match="boom at 1.0"):
            yield sim.fork_join([child(3.0, False), child(1.0, True),
                                 child(2.0, True)])
        finished.append(("caught", sim.now))

    sim.process(parent())
    sim.run()
    # The other children run to their ends; the second failure is
    # dropped, as under AllOf.
    assert finished == [("caught", 1.0), 3.0]


def test_fork_join_children_are_checked_processes():
    sim = Simulator()
    with pytest.raises(TypeError, match="requires a generator"):
        sim.fork_join(["not a generator"])


def test_fork_join_child_completion_keeps_the_double_trigger_check():
    sim = Simulator()

    def child():
        yield sim.timeout(1.0)

    def parent():
        join = sim.fork_join([child()])
        join._children[0].succeed("early")
        yield join

    sim.process(parent())
    with pytest.raises(RuntimeError, match="already been triggered"):
        sim.run()
