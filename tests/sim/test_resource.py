"""Tests for Resource / Pool / Store / Channel contention primitives."""

import collections
import contextlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.determinism import trace_of
from repro.analysis.racecheck import RaceSanitizer
from repro.sim import (
    Channel,
    Interrupt,
    Pool,
    Resource,
    Simulator,
    Store,
    use_sanitizer,
)
from repro.sim.resource import Request


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


def test_channel_rejects_nan_size():
    sim = Simulator()
    link = Channel(sim, bandwidth_bytes_per_ns=1.0)

    def sender():
        with pytest.raises(ValueError):
            yield sim.process(link.transfer(float("nan")))
        return "ok"

    proc = sim.process(sender())
    sim.run()
    assert proc.value == "ok"


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


# ----------------------------------------------------------------------
# Pool: fixed-length holds priced when claimed
# ----------------------------------------------------------------------
def test_pool_capacity_must_be_positive():
    with pytest.raises(ValueError, match="capacity"):
        Pool(Simulator(), capacity=0)


@pytest.mark.parametrize("duration", [-1.0, -1e-300, float("nan")])
def test_pool_rejects_negative_and_nan_lengths(duration):
    pool = Pool(Simulator(), capacity=2, name="units")
    with pytest.raises(ValueError, match="units: hold length"):
        pool.reserve(duration)
    # A rejected claim takes no slot.
    assert pool.reserve(5.0) == 5.0
    assert pool.reserve(5.0) == 5.0


def test_pool_reserve_takes_the_earliest_free_slot():
    sim = Simulator()
    pool = Pool(sim, capacity=2)
    assert [pool.reserve(d) for d in (10.0, 4.0, 1.0, 0.0)] == [
        10.0, 4.0, 5.0, 5.0]


def test_pool_hold_wakes_once_at_the_finish():
    sim = Simulator()
    pool = Pool(sim)
    woke = []

    def holder(tag):
        yield from pool.hold(10.0)
        woke.append((tag, sim.now))

    sim.process(holder("a"))
    sim.process(holder("b"))
    sim.run()
    assert woke == [("a", 10.0), ("b", 20.0)]


def _wake_instants(capacity, claimants, pooled):
    """Instant each claimant's hold ends, claimant by claimant.

    ``pooled`` holds on a :class:`Pool`; otherwise every hold is the
    reference: a ``Resource`` slot held by ``sim.process(res.use(d))``.
    """
    sim = Simulator()
    pool = Pool(sim, capacity)
    res = Resource(sim, capacity)
    woke = [None] * len(claimants)

    def claimant(index, arrival, duration):
        yield sim.timeout(arrival)
        if pooled:
            yield from pool.hold(duration)
        else:
            yield sim.process(res.use(duration))
        woke[index] = sim.now

    for index, (arrival, duration) in enumerate(claimants):
        sim.process(claimant(index, arrival, duration))
    sim.run()
    return woke


# Few distinct values, so arrivals and finishes tie often; the
# fractions make start + duration round.
_INSTANTS = st.sampled_from([0.0, 0.1, 0.3, 1.0, 1.1, 2.5, 3.0, 7.7])
_LENGTHS = st.one_of(
    st.sampled_from([0.0, 0.1, 0.2, 1.0, 2.5, 3.0, 1e-9]),
    st.floats(min_value=0.0, max_value=10.0, allow_nan=False))


@settings(max_examples=300, deadline=None)
@given(capacity=st.integers(min_value=1, max_value=4),
       claimants=st.lists(st.tuples(_INSTANTS, _LENGTHS),
                          min_size=1, max_size=16))
def test_pool_hold_wakes_when_resource_use_would(capacity, claimants):
    # One hold per claimant.  A pooled holder wakes at another point
    # of its finish instant than the reference does, so a claimant
    # that claimed again at once could overtake a claim made at the
    # same instant; the device models keep their outputs, which
    # DESIGN §6.1 gates, but that order is not the same.
    assert (_wake_instants(capacity, claimants, pooled=True)
            == _wake_instants(capacity, claimants, pooled=False))


def test_pool_reclaim_at_the_finish_instant_can_overtake():
    # The counterexample to back-to-back holds: B's hold ends at 1.0
    # when A's timeout fires.  Under Resource, A's claim goes first;
    # the pooled B wakes first and claims again first.
    # Each claimant: (gap before the hold, hold length), in turn.
    claimants = [[(0.0, 0.0), (1.0, 0.1)], [(0.0, 1.0), (0.0, 0.0)]]

    def run(pooled):
        sim = Simulator()
        pool, res = Pool(sim), Resource(sim)
        woke = [[] for _ in claimants]

        def claimant(index, holds):
            for gap, duration in holds:
                if gap:
                    yield sim.timeout(gap)
                if pooled:
                    yield from pool.hold(duration)
                else:
                    yield sim.process(res.use(duration))
                woke[index].append(sim.now)

        for index, holds in enumerate(claimants):
            sim.process(claimant(index, holds))
        sim.run()
        return woke

    assert run(pooled=False) == [[0.0, 1.1], [1.0, 1.1]]
    assert run(pooled=True) == [[0.0, 1.1], [1.0, 1.0]]


def _twin_pools(capacity, earlier, now):
    """Two pools with the same ``earlier`` claims behind them, at ``now``."""
    sim = Simulator()
    pools = (Pool(sim, capacity), Pool(sim, capacity))
    for duration in earlier:
        for pool in pools:
            pool.reserve(duration)
    sim.run(until=now)
    return pools


@settings(max_examples=300, deadline=None)
@given(capacity=st.integers(min_value=1, max_value=4),
       earlier=st.lists(_LENGTHS, max_size=8),
       now=_INSTANTS,
       count=st.integers(min_value=0, max_value=12),
       duration=_LENGTHS)
def test_pool_reserve_many_equals_reserve_calls(capacity, earlier, now,
                                                count, duration):
    pool, reference = _twin_pools(capacity, earlier, now)
    finish = now
    for _ in range(count):
        finish = max(finish, reference.reserve(duration))
    assert pool.reserve_many(count, duration) == finish
    # Every slot's free instant, in the same heap positions.
    assert pool._free == reference._free


@pytest.mark.parametrize("duration", [-1.0, -1e-300, float("nan")])
def test_pool_reserve_many_rejects_bad_lengths_before_claiming(duration):
    pool, _ = _twin_pools(3, [4.0, 1.0], 0.5)
    free = list(pool._free)
    with pytest.raises(ValueError, match="hold length"):
        pool.reserve_many(2, duration)
    assert pool._free == free


# ----------------------------------------------------------------------
# Resource hold claims: fixed-length holds priced when granted
# ----------------------------------------------------------------------
def _hold_spans(capacity, claimants, held, observed=False):
    """``(start, finish)`` of each claimant's hold, claimant by claimant.

    ``held`` holds with one ``request(hold=d)``; otherwise every hold
    is the reference: ``request()``, then ``timeout(d)`` once granted,
    then ``release``.  ``observed`` attaches a race sanitizer, so the
    claims take the hooked schedule.
    """
    with (use_sanitizer(RaceSanitizer()) if observed
          else contextlib.nullcontext()):
        sim = Simulator()
    res = Resource(sim, capacity)
    spans = [None] * len(claimants)

    def claimant(index, arrival, duration):
        yield sim.timeout(arrival)
        if held:
            req = res.request(hold=duration)
            yield req
            spans[index] = (req.start, sim.now)
        else:
            req = res.request()
            yield req
            start = sim.now
            yield sim.timeout(duration)
            spans[index] = (start, sim.now)
        res.release(req)

    for index, (arrival, duration) in enumerate(claimants):
        sim.process(claimant(index, arrival, duration))
    sim.run()
    return spans


@settings(max_examples=300, deadline=None)
@given(capacity=st.integers(min_value=1, max_value=4),
       claimants=st.lists(st.tuples(_INSTANTS, _LENGTHS),
                          min_size=1, max_size=16),
       observed=st.booleans())
def test_hold_claim_spans_equal_request_timeout_release(
        capacity, claimants, observed):
    assert (_hold_spans(capacity, claimants, held=True, observed=observed)
            == _hold_spans(capacity, claimants, held=False))


@pytest.mark.parametrize("observed", [False, True])
def test_hold_claims_hand_off_in_fifo_order(observed):
    spans = _hold_spans(1, [(0.0, 5.0), (0.0, 1.0), (0.0, 2.0),
                            (1.0, 0.5)], held=True, observed=observed)
    assert spans == [(0.0, 5.0), (5.0, 6.0), (6.0, 8.0), (8.0, 8.5)]


def test_hold_claims_count_while_held_and_queued():
    # A window lock's pre-RESET reads both to decide whether to skip.
    sim = Simulator()
    res = Resource(sim, capacity=2)
    claims = [res.request(hold=d) for d in (4.0, 2.0, 1.0)]
    assert (res.count, res.queue_length) == (2, 1)
    assert [claim.start for claim in claims] == [0.0, 0.0, None]

    def holder(claim):
        yield claim
        res.release(claim)

    for claim in claims:
        sim.process(holder(claim))
    sim.run()
    assert (res.count, res.queue_length) == (0, 0)
    # The third claim took the slot the 2 ns hold freed.
    assert (claims[2].start, sim.now) == (2.0, 4.0)


def test_releasing_a_queued_hold_claim_drops_it():
    sim = Simulator()
    res = Resource(sim)
    holder = res.request(hold=5.0)
    queued = res.request(hold=1.0)
    res.release(queued)
    assert res.queue_length == 0
    sim.run()
    res.release(holder)
    assert res.count == 0
    assert not queued.triggered and queued.start is None


def test_exception_in_a_holder_frees_the_slot():
    sim = Simulator()
    res = Resource(sim)
    spans = []

    def waiter():
        req = res.request(hold=2.0)
        yield req
        spans.append((req.start, sim.now))
        res.release(req)

    def interrupter(target):
        yield sim.timeout(3.0)
        target.interrupt("abort")

    holder = sim.process(res.use(10.0))
    sim.process(waiter())
    sim.process(interrupter(holder))
    sim.run()
    assert isinstance(holder.value, Interrupt)
    # The slot went to the waiter at the interrupt, not at 10.0.
    assert spans == [(3.0, 5.0)]
    assert (res.count, res.queue_length) == (0, 0)


@pytest.mark.parametrize("hold", [-1.0, -1e-300, float("nan")])
def test_negative_and_nan_holds_rejected(hold):
    res = Resource(Simulator(), name="bus")
    with pytest.raises(ValueError, match="bus: hold length"):
        res.request(hold=hold)
    # A rejected claim takes no slot.
    assert (res.count, res.queue_length) == (0, 0)


def test_use_wakes_once_per_hold():
    def workload():
        sim = Simulator()
        res = Resource(sim, name="core")
        sim.process(res.use(5.0))
        sim.process(res.use(5.0))
        sim.run()
        assert sim.now == 10.0

    # Bootstrap, hold end and completion per hold: the second hold is
    # granted inside the first's release, so it has no grant dispatch.
    assert [label for _, label in trace_of(workload)] == [
        "use.bootstrap", "use.bootstrap", "request(core)", "use",
        "request(core)", "use"]


# ----------------------------------------------------------------------
# Counted slots against the set of holders they replaced
# ----------------------------------------------------------------------
class _SetResource:
    """``Resource`` as it kept its holders in a set: the reference the
    counted resource must match, grant for grant and error for error."""

    def __init__(self, sim, capacity, name):
        self.sim = sim
        self.name = name
        self.capacity = capacity
        self._users = set()
        self._queue = collections.deque()

    @property
    def count(self):
        return len(self._users)

    @property
    def queue_length(self):
        return len(self._queue)

    def request(self, hold=None):
        req = Request(self, hold)
        if len(self._users) < self.capacity:
            self._users.add(req)
            req._triggered = True
            if hold is None:
                self.sim._trigger(req)
            else:
                req.start = self.sim.now
                self.sim._schedule(hold, req)
        else:
            self._queue.append(req)
        return req

    def release(self, request):
        if request in self._users:
            self._users.remove(request)
        elif request in self._queue:
            self._queue.remove(request)
            return
        else:
            raise ValueError(f"{request!r} does not hold {self.name}")
        while self._queue and len(self._users) < self.capacity:
            waiter = self._queue.popleft()
            self._users.add(waiter)
            if waiter._triggered:
                raise RuntimeError(f"{waiter!r} has already been triggered")
            waiter._triggered = True
            if waiter.hold is None:
                self.sim._trigger(waiter)
            else:
                waiter.start = self.sim.now
                self.sim._schedule(waiter.hold, waiter)


_CLAIM_STEPS = st.one_of(
    # A claim: plain, or a hold of one of a few lengths (ties included),
    # or a negative or NaN one, which both refuse.
    st.tuples(st.just("claim"),
              st.sampled_from([None, 0.0, 1.0, 2.5, 4.0, -1.0,
                               float("nan")])),
    # A release of the k-th claim so far (modulo the claims made): it
    # may hold, wait, be released already or not be granted yet.
    st.tuples(st.just("release"), st.integers(min_value=0, max_value=31)),
    # The same claim released into another resource: never a holder.
    st.tuples(st.just("foreign"), st.integers(min_value=0, max_value=31)),
    # Let simulated time pass.
    st.tuples(st.just("run"), st.sampled_from([0.0, 0.5, 1.0, 3.0])))


def _drive_claims(kind, capacity, steps, observed):
    """Run ``steps`` against a ``kind`` resource; its observable log."""
    scope = contextlib.nullcontext()
    if observed:
        # A hooked schedule: claims take Simulator._schedule.
        scope = use_sanitizer(RaceSanitizer())
    with scope:
        sim = Simulator()
        res = kind(sim, capacity, "res")
        other = kind(sim, capacity, "other")
        claims = []
        log = []

        def note(label):
            return lambda event: log.append((label, sim.now))

        for step in steps:
            try:
                if step[0] == "claim":
                    claim = res.request(hold=step[1])
                    claim.callbacks.append(note(len(claims)))
                    claims.append(claim)
                elif step[0] == "run":
                    sim.run(until=sim.now + step[1])
                elif claims:
                    target = res if step[0] == "release" else other
                    target.release(claims[step[1] % len(claims)])
            except (ValueError, RuntimeError) as error:
                log.append((type(error).__name__, str(error)))
            log.append((res.count, res.queue_length))
        sim.run()
        log.append((res.count, res.queue_length, sim.now))
        log.append([claim.start for claim in claims])
        return log


@settings(max_examples=300, deadline=None)
@given(capacity=st.integers(min_value=1, max_value=4),
       steps=st.lists(_CLAIM_STEPS, max_size=40),
       observed=st.booleans())
def test_counted_slots_match_a_set_of_holders(capacity, steps, observed):
    # Grant instants and their order, count, queue length and every
    # error raised are those of the set-based resource.
    assert (_drive_claims(Resource, capacity, steps, observed)
            == _drive_claims(_SetResource, capacity, steps, observed))
