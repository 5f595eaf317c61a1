"""The ready queue keeps the single-heap dispatch order exactly.

Zero-delay events (and delays that round to the current instant) skip
the heap for a FIFO ready queue.  The property tests compare the
kernel against a reference that keeps one ``(timestamp, counter)``
heap, the order the kernel promises: random programs of zero and positive
delays, callbacks that schedule more events, ``run(until=...)`` and
interleaved ``step()``, the observed drain's shuffled waves and its
per-instant batches, shuffled or not.
"""

from __future__ import annotations

import collections
import functools
import heapq
import itertools
import random
import typing

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import KernelScope, Simulator
from repro.telemetry.hostprof import HostProfiler

#: Start instants: the origin, and one where every delay below 2**13
#: rounds to the current instant (the ulp of 1e20 is 2**14).
STARTS = (0.0, 1e20)

#: Zero delays, delays that tie, delays that round away at 1e20, and
#: one that does not.
DELAYS = st.one_of(
    st.just(0.0),
    st.sampled_from([0.5, 1.0, 2.0, 1e-9, 65536.0]),
    st.floats(min_value=0.0, max_value=4.0),
)


class Node(typing.NamedTuple):
    parent: int    # index of the node whose dispatch schedules it; -1: root
    delay: float
    succeed: bool  # zero delay via Event.succeed() rather than a Timeout
    spawn_at: int  # roots: scheduled just before this control action


class Program(typing.NamedTuple):
    start: float
    nodes: typing.Tuple[Node, ...]
    #: ``("step", count)`` or ``("until", offset from the clock)``.
    actions: typing.Tuple[typing.Tuple[str, float], ...]


@st.composite
def programs(draw, actions=True):
    start = draw(st.sampled_from(STARTS))
    steps = st.tuples(st.just("step"), st.integers(1, 4))
    untils = st.tuples(st.just("until"),
                       st.floats(min_value=0.0, max_value=6.0))
    plan = tuple(draw(st.lists(st.one_of(steps, untils), max_size=6))
                 if actions else ())
    nodes = []
    for index in range(draw(st.integers(1, 40))):
        delay = draw(DELAYS)
        nodes.append(Node(
            parent=draw(st.integers(-1, index - 1)),
            delay=delay,
            succeed=delay == 0.0 and draw(st.booleans()),
            spawn_at=draw(st.integers(0, len(plan)))))
    return Program(start, tuple(nodes), plan)


class ReferenceHeap:
    """Every event on one ``(timestamp, counter)`` heap.

    With ``rng``, ``run()`` is the tie-break shuffle: it pops every
    entry due at the next instant, permutes them, and dispatches them;
    what they schedule at that instant forms the next wave.
    """

    def __init__(self, rng: random.Random | None = None) -> None:
        self.now = 0.0
        self.heap: list = []
        self.counter = itertools.count()
        self.rng = rng

    def schedule(self, node, fire):
        heapq.heappush(self.heap,
                       (self.now + node.delay, next(self.counter), fire))

    def pending(self):
        return bool(self.heap)

    def step(self):
        self.now, _, fire = heapq.heappop(self.heap)
        fire()

    def run(self, until=None):
        while self.heap and (until is None or self.heap[0][0] <= until):
            if self.rng is None:
                self.step()
                continue
            self.now = when = self.heap[0][0]
            wave = []
            while self.heap and self.heap[0][0] == when:
                wave.append(heapq.heappop(self.heap))
            if len(wave) > 1:
                self.rng.shuffle(wave)
            for _, _, fire in wave:
                fire()
        if until is not None:
            self.now = max(self.now, until)


class SimulatorKernel:
    """The simulator under test, behind the reference's interface."""

    def __init__(self, **kwargs) -> None:
        self.sim = Simulator(**kwargs)

    @property
    def now(self):
        return self.sim.now

    def schedule(self, node, fire):
        if node.succeed:
            event = self.sim.event()
            event.callbacks.append(lambda _: fire())
            event.succeed()
        else:
            self.sim.timeout(node.delay).callbacks.append(lambda _: fire())

    def pending(self):
        return self.sim.peek() != float("inf")

    def step(self):
        self.sim.step()

    def run(self, until=None):
        self.sim.run(until)


def dispatch_order(kernel, program):
    """Execute ``program`` on ``kernel``; the ``(time, node)`` order."""
    order = []
    children = collections.defaultdict(list)
    roots = collections.defaultdict(list)
    for index, node in enumerate(program.nodes):
        if node.parent < 0:
            roots[node.spawn_at].append(index)
        else:
            children[node.parent].append(index)

    def fire(index):
        order.append((kernel.now, index))
        for child in children[index]:
            kernel.schedule(program.nodes[child],
                            functools.partial(fire, child))

    def spawn(position):
        for index in roots[position]:
            kernel.schedule(program.nodes[index],
                            functools.partial(fire, index))

    kernel.run(until=program.start)
    for position, (action, argument) in enumerate(program.actions):
        spawn(position)
        if action == "step":
            for _ in range(int(argument)):
                if kernel.pending():
                    kernel.step()
        else:
            kernel.run(until=kernel.now + argument)
    spawn(len(program.actions))
    kernel.run()
    return order, kernel.now


@settings(max_examples=300, deadline=None)
@given(programs())
def test_dispatch_order_matches_the_single_heap(program):
    assert (dispatch_order(SimulatorKernel(), program)
            == dispatch_order(ReferenceHeap(), program))


@settings(max_examples=200, deadline=None)
@given(programs(), st.integers(0, 2**32 - 1))
def test_shuffled_waves_match_the_single_heap(program, seed):
    expected = dispatch_order(ReferenceHeap(random.Random(seed)), program)
    shuffled = SimulatorKernel(scope=KernelScope(tiebreak_seed=seed))
    assert dispatch_order(shuffled, program) == expected


@settings(max_examples=150, deadline=None)
@given(programs(actions=False))
def test_profiled_batches_are_the_instants_of_the_single_heap(program):
    profiler = HostProfiler()
    kernel = SimulatorKernel(scope=KernelScope(hostprof=profiler))
    order, _ = dispatch_order(kernel, program)
    assert order == dispatch_order(ReferenceHeap(), program)[0]
    assert profiler.census()["batch_sizes"] == [
        len(list(group))
        for _, group in itertools.groupby(when for when, _ in order)]


@settings(max_examples=150, deadline=None)
@given(programs(actions=False), st.integers(0, 2**32 - 1))
def test_profiled_shuffled_batches_are_the_shuffled_instants(program, seed):
    # A shuffled run is profiled like any other: one batch per instant.
    profiler = HostProfiler()
    kernel = SimulatorKernel(
        scope=KernelScope(tiebreak_seed=seed, hostprof=profiler))
    order, _ = dispatch_order(kernel, program)
    expected, _ = dispatch_order(ReferenceHeap(random.Random(seed)),
                                 program)
    assert order == expected
    assert profiler.census()["batch_sizes"] == [
        len(list(group))
        for _, group in itertools.groupby(when for when, _ in expected)]


def test_a_delay_that_rounds_to_now_queues_in_schedule_order():
    sim = Simulator()
    sim.run(until=1e20)
    order = []
    sim.timeout(1.0).callbacks.append(lambda _: order.append("rounded"))
    sim.event().succeed().callbacks.append(lambda _: order.append("zero"))
    assert sim.peek() == 1e20
    sim.run()
    assert order == ["rounded", "zero"]
    assert sim.now == 1e20


def test_step_drains_due_heap_entries_before_the_queue():
    sim = Simulator()
    order = []
    for name in ("heap-a", "heap-b"):
        sim.timeout(5.0).callbacks.append(
            lambda _, name=name: order.append(name))
    sim.step()  # the clock moves to 5.0 with heap-b still due
    sim.event().succeed().callbacks.append(lambda _: order.append("queued"))
    sim.step()
    sim.step()
    assert order == ["heap-a", "heap-b", "queued"]
    assert sim.peek() == float("inf")


class TestOnlyQueuedEventsRemain:
    def _sim(self):
        sim = Simulator()
        sim.run(until=7.0)
        sim.event().succeed()
        return sim

    def test_peek_returns_now(self):
        sim = self._sim()
        assert sim.peek() == 7.0
        sim.timeout(3.0)  # a later heap entry does not hide the queue
        assert sim.peek() == 7.0
