"""Tests for Resource / Store / Channel contention primitives."""

import pytest

from repro.sim import Channel, Resource, Simulator, Store


def test_resource_grants_up_to_capacity_immediately():
    sim = Simulator()
    res = Resource(sim, capacity=2)
    first, second = res.request(), res.request()
    third = res.request()
    assert first.triggered and second.triggered
    assert not third.triggered
    assert res.count == 2
    assert res.queue_length == 1


def test_resource_release_hands_slot_to_waiter():
    sim = Simulator()
    res = Resource(sim)
    holder = res.request()
    waiter = res.request()
    res.release(holder)
    assert waiter.triggered


def test_resource_release_of_queued_request_cancels_it():
    sim = Simulator()
    res = Resource(sim)
    holder = res.request()
    queued = res.request()
    res.release(queued)
    assert res.queue_length == 0
    res.release(holder)
    assert not queued.triggered


def test_resource_release_unknown_request_raises():
    sim = Simulator()
    res_a, res_b = Resource(sim), Resource(sim)
    foreign = res_b.request()
    with pytest.raises(ValueError):
        res_a.release(foreign)


def test_resource_serializes_processes():
    sim = Simulator()
    res = Resource(sim)
    spans = []

    def worker(tag):
        start_req = res.request()
        yield start_req
        start = sim.now
        yield sim.timeout(10.0)
        res.release(start_req)
        spans.append((tag, start, sim.now))

    sim.process(worker("a"))
    sim.process(worker("b"))
    sim.run()
    assert spans == [("a", 0.0, 10.0), ("b", 10.0, 20.0)]


def test_resource_use_helper_releases_on_completion():
    sim = Simulator()
    res = Resource(sim)

    def worker():
        yield sim.process(res.use(5.0))
        yield sim.process(res.use(5.0))

    sim.process(worker())
    sim.run()
    assert sim.now == 10.0
    assert res.count == 0


def test_resource_capacity_must_be_positive():
    with pytest.raises(ValueError):
        Resource(Simulator(), capacity=0)


def test_store_fifo_order():
    sim = Simulator()
    store = Store(sim)
    got = []

    def producer():
        for item in ("x", "y", "z"):
            yield store.put(item)

    def consumer():
        for _ in range(3):
            item = yield store.get()
            got.append(item)

    sim.process(producer())
    sim.process(consumer())
    sim.run()
    assert got == ["x", "y", "z"]


def test_store_get_blocks_until_put():
    sim = Simulator()
    store = Store(sim)
    got = []

    def consumer():
        item = yield store.get()
        got.append((sim.now, item))

    def producer():
        yield sim.timeout(42.0)
        yield store.put("late")

    sim.process(consumer())
    sim.process(producer())
    sim.run()
    assert got == [(42.0, "late")]


def test_store_put_blocks_when_full():
    sim = Simulator()
    store = Store(sim, capacity=1)
    log = []

    def producer():
        yield store.put(1)
        log.append(("put1", sim.now))
        yield store.put(2)
        log.append(("put2", sim.now))

    def consumer():
        yield sim.timeout(10.0)
        yield store.get()

    sim.process(producer())
    sim.process(consumer())
    sim.run()
    assert log == [("put1", 0.0), ("put2", 10.0)]


def test_store_capacity_must_be_positive():
    with pytest.raises(ValueError):
        Store(Simulator(), capacity=0)


def test_channel_transfer_time_includes_latency():
    sim = Simulator()
    link = Channel(sim, bandwidth_bytes_per_ns=2.0, latency_ns=5.0)
    assert link.occupancy_time(100) == 50.0
    assert link.transfer_time(100) == 55.0


def test_channel_transfers_serialize_but_latency_pipelines():
    sim = Simulator()
    link = Channel(sim, bandwidth_bytes_per_ns=1.0, latency_ns=10.0)
    done = []

    def sender(tag, size):
        yield sim.process(link.transfer(size))
        done.append((tag, sim.now))

    sim.process(sender("a", 100))
    sim.process(sender("b", 100))
    sim.run()
    # a: occupies 0-100, arrives 110. b: occupies 100-200, arrives 210.
    assert done == [("a", 110.0), ("b", 210.0)]


def test_channel_accounts_bytes_and_busy_time():
    sim = Simulator()
    link = Channel(sim, bandwidth_bytes_per_ns=4.0)

    def sender():
        yield sim.process(link.transfer(400))

    sim.process(sender())
    sim.run()
    assert link.bytes_transferred == 400
    assert link.busy_time == 100.0


def test_channel_rejects_bad_parameters():
    sim = Simulator()
    with pytest.raises(ValueError):
        Channel(sim, bandwidth_bytes_per_ns=0.0)
    with pytest.raises(ValueError):
        Channel(sim, bandwidth_bytes_per_ns=1.0, latency_ns=-1.0)


def test_channel_rejects_negative_size():
    sim = Simulator()
    link = Channel(sim, bandwidth_bytes_per_ns=1.0)

    def sender():
        with pytest.raises(ValueError):
            yield sim.process(link.transfer(-5))
        return "ok"

    proc = sim.process(sender())
    sim.run()
    assert proc.value == "ok"


def test_resource_grant_of_a_triggered_waiter_rejected():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    holder = res.request()
    waiter = res.request()
    waiter.succeed()
    with pytest.raises(RuntimeError, match="already been triggered"):
        res.release(holder)
