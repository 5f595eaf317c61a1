"""FIFO tie-break invariant and the seeded same-timestamp shuffle."""

import pytest

from repro.sim import KernelObserver, KernelScope, Simulator, use_tiebreak


def _record_order(sim, order, count, delay=10.0):
    """Spawn ``count`` processes that all wake at ``delay``."""
    def body(index):
        yield sim.timeout(delay)
        order.append(index)

    for index in range(count):
        sim.process(body(index), name=f"p{index}")


def test_fast_drain_preserves_fifo_schedule_order():
    sim = Simulator()
    order = []
    _record_order(sim, order, 8)
    sim.run()
    assert order == list(range(8))


def test_step_loop_matches_fast_drain_order():
    # Any attached observer, even a no-op one, takes the observed
    # drain; same-timestamp ordering must be identical to the fast drain.
    sim = Simulator(scope=KernelScope(observers=(KernelObserver(),)))
    order = []
    _record_order(sim, order, 8)
    sim.run()
    assert order == list(range(8))


def test_events_scheduled_mid_batch_stay_fifo():
    sim = Simulator()
    order = []

    def parent(index):
        yield sim.timeout(10.0)
        order.append(("parent", index))
        sim.process(child(index))

    def child(index):
        order.append(("child-start", index))
        yield sim.timeout(0.0)
        order.append(("child", index))

    sim.process(parent(0))
    sim.process(parent(1))
    sim.run()
    # Children bootstrap at the same instant but after both parents,
    # in the order the parents spawned them.
    assert order == [
        ("parent", 0), ("parent", 1),
        ("child-start", 0), ("child-start", 1),
        ("child", 0), ("child", 1),
    ]


def test_shuffled_drain_is_deterministic_per_seed():
    def run(seed):
        sim = Simulator(scope=KernelScope(tiebreak_seed=seed))
        order = []
        _record_order(sim, order, 8)
        sim.run()
        return order

    assert run(3) == run(3)
    assert sorted(run(3)) == list(range(8))


def test_some_seed_permutes_the_batch():
    def run(seed):
        sim = Simulator(scope=KernelScope(tiebreak_seed=seed))
        order = []
        _record_order(sim, order, 8)
        sim.run()
        return order

    fifo = list(range(8))
    assert any(run(seed) != fifo for seed in range(1, 6)), (
        "five seeded shuffles of an 8-event batch never permuted it")


def test_shuffle_respects_timestamp_ordering():
    sim = Simulator(scope=KernelScope(tiebreak_seed=1))
    order = []

    def body(index, delay):
        yield sim.timeout(delay)
        order.append((delay, index))

    for index in range(4):
        sim.process(body(index, 10.0))
    for index in range(4):
        sim.process(body(index, 20.0))
    sim.run()
    delays = [delay for delay, _ in order]
    assert delays == sorted(delays)
    assert sim.now == 20.0


def test_shuffled_run_honours_until():
    sim = Simulator(scope=KernelScope(tiebreak_seed=2))
    order = []

    def body(index, delay):
        yield sim.timeout(delay)
        order.append(index)

    sim.process(body(0, 10.0))
    sim.process(body(1, 30.0))
    sim.run(until=20.0)
    assert order == [0]
    assert sim.now == 20.0


def test_ambient_tiebreak_seed_binds_new_simulators():
    def run():
        sim = Simulator()
        order = []
        _record_order(sim, order, 8)
        sim.run()
        return order

    with use_tiebreak(4):
        shuffled = run()
    assert sorted(shuffled) == list(range(8))
    assert run() == list(range(8))  # seed does not leak past the context


def test_explicit_seed_wins_over_ambient():
    def run(**kwargs):
        sim = Simulator(**kwargs)
        order = []
        _record_order(sim, order, 8)
        sim.run()
        return order

    seeded = KernelScope(tiebreak_seed=9)
    with use_tiebreak(4):
        explicit = run(scope=seeded)
    assert explicit == run(scope=seeded)


@pytest.mark.tiebreak_shuffle(runs=3)
def test_commutative_model_survives_shuffle_marker():
    # The marker re-runs this body under three seeded shuffles; an
    # order-dependent model would fail one of them.
    sim = Simulator()
    total = {"value": 0}

    def adder(amount):
        yield sim.timeout(5.0)
        total["value"] += amount

    for amount in (1, 2, 4, 8):
        sim.process(adder(amount))
    sim.run()
    assert total["value"] == 15
    assert sim.now == 5.0
