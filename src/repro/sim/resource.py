"""Contended-resource primitives: resources, pools, stores, and channels."""

from __future__ import annotations

import collections
import heapq
import typing

from repro.sim.event import Event

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.engine import Simulator


class Request(Event):
    """Pending claim on a :class:`Resource` slot.

    A plain claim triggers when its slot is granted.  A hold claim
    states its length (``hold``): granted, it is scheduled to fire
    ``hold`` ns later, like a timeout, and ``start`` records the grant
    instant.  ``held`` is True from the grant until the release.

    Reads as ``request(<resource name>)``.
    """

    __slots__ = ("resource", "hold", "start", "held")

    def __init__(self, resource: "Resource",
                 hold: float | None = None) -> None:
        if hold is not None and not hold >= 0:  # also rejects NaN
            raise ValueError(
                f"{resource.name}: hold length must be >= 0, got {hold}")
        # Fields are set inline, as in Timeout, and the label is built
        # only when read.  Resource.request builds its claims itself.
        self.sim = resource.sim
        self._name = ""
        self.callbacks = []
        self._value = None
        self._ok = True
        self._triggered = False
        self._processed = False
        self.resource = resource
        self.hold = hold
        self.start: float | None = None
        self.held = False

    @property
    def name(self) -> str:
        return f"request({self.resource.name})"


class Resource:
    """A pool of ``capacity`` identical slots (ports, lanes, cores).

    Usage inside a process::

        request = bus.request()
        yield request
        ...  # exclusive use of one slot
        bus.release(request)

    A hold whose length is known when it is claimed wakes its holder
    once, at its end::

        request = bus.request(hold=duration)
        yield request  # resumes at request.start + duration
        bus.release(request)

    The resource counts its claimed slots, and each granted request
    carries its own ``held`` flag, so a claim and a release touch no
    container but the wait queue.
    """

    def __init__(self, sim: "Simulator", capacity: int = 1,
                 name: str = "resource") -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.name = name
        self.capacity = capacity
        self._count = 0
        self._queue: typing.Deque[Request] = collections.deque()

    @property
    def count(self) -> int:
        """Number of slots currently claimed."""
        return self._count

    @property
    def queue_length(self) -> int:
        """Number of requests waiting for a slot."""
        return len(self._queue)

    def request(self, hold: float | None = None) -> Request:
        """Claim a slot.

        Plain, the returned event triggers when the slot is granted.
        With ``hold`` (ns, not negative or NaN), the claim is a
        fixed-length hold: the grant schedules the event to fire
        ``hold`` ns later, so the holder wakes once, at the hold's end,
        with the grant instant in ``start``.  The holder still releases
        the slot.  The end is the float a ``timeout(hold)`` taken at
        the grant would give.
        """
        if hold is not None and not hold >= 0:  # also rejects NaN
            raise ValueError(
                f"{self.name}: hold length must be >= 0, got {hold}")
        # Request(self, hold) written out: one frame per bus or pair
        # claim builds, grants and schedules it.
        sim = self.sim
        req = Request.__new__(Request)
        req.sim = sim
        req._name = ""
        req.callbacks = []
        req._value = None
        req._ok = True
        req._processed = False
        req.resource = self
        req.hold = hold
        req.start = None
        if self._count < self.capacity:
            self._count += 1
            req.held = True
            # req.succeed() written out (the request is fresh, so it
            # cannot have been triggered).
            req._triggered = True
            if hold is None:
                sim._trigger(req)
            elif sim._schedule_hooked:
                req.start = sim.now
                sim._schedule(hold, req)
            else:
                # sim._schedule(hold, req) written out (hold is
                # checked): the same queue, the same heap entry.
                req.start = now = sim.now
                when = now + hold
                if when == now:
                    sim._ready.append(req)
                else:
                    heapq.heappush(sim._heap,
                                   (when, next(sim._counter), req))
        else:
            req.held = False
            req._triggered = False
            self._queue.append(req)
        return req

    def release(self, request: Request) -> None:
        """Return a previously granted slot to the pool.

        Hand-offs to queued waiters happen inside the releasing task,
        which schedules the grant, so release -> next-grant is a
        happens-before edge by construction.
        """
        try:
            held = request.held and request.resource is self
        except AttributeError:  # not a claim at all
            held = False
        queue = self._queue
        if held:
            request.held = False
            self._count -= 1
        elif request in queue:
            queue.remove(request)
            return
        else:
            raise ValueError(f"{request!r} does not hold {self.name}")
        sim = self.sim
        while queue and self._count < self.capacity:
            waiter = queue.popleft()
            self._count += 1
            waiter.held = True
            # waiter.succeed() written out, its double-trigger check kept.
            if waiter._triggered:
                raise RuntimeError(f"{waiter!r} has already been triggered")
            waiter._triggered = True
            # A hold claim is priced at its grant, here in the
            # releasing task, and scheduled as in request().
            hold = waiter.hold
            if hold is None:
                sim._trigger(waiter)
            elif sim._schedule_hooked:
                waiter.start = sim.now
                sim._schedule(hold, waiter)
            else:
                waiter.start = now = sim.now
                when = now + hold
                if when == now:
                    sim._ready.append(waiter)
                else:
                    heapq.heappush(sim._heap,
                                   (when, next(sim._counter), waiter))

    def use(self, duration: float) -> typing.Generator:
        """Convenience process body: hold one slot for ``duration`` ns."""
        req = self.request(hold=duration)
        try:
            yield req
        finally:
            self.release(req)


class Pool:
    """A FIFO pool of ``capacity`` identical slots for fixed-length holds.

    A :class:`Resource` slot is held until its holder releases it.  A
    pool claim states its length when it is made, so the pool prices
    it then: :meth:`reserve` takes the earliest-free slot and returns
    the finish instant ``start + duration``, where ``start`` is the
    current instant, or that slot's free instant if it is later.
    :meth:`hold` sleeps until that finish with one event, where
    ``sim.process(resource.use(duration))`` dispatches three (the
    bootstrap, the hold's end and the completion).

    Each claim gets the start and finish instants a FIFO ``Resource``
    would give it, as the same floats: FIFO order over identical slots
    is earliest-free slot first; the kernel runs the releases due at an
    instant (heap) before the claims made at it (ready queue); and the
    finish is the ``start + duration`` the holder's timeout computes.
    What moves is where in the finish instant the holder wakes.

    Use a pool only where every claim is a hold whose length is known
    when it is claimed.  A reserved slot cannot be handed back: a
    holder interrupted mid-hold keeps its slot until the finish it
    reserved (nothing in the device models interrupts a storage hold).
    Pool holds model occupancy time, not a critical section: to the
    race sanitizer a holder's wake-up is an event the claiming task
    scheduled, like any timeout.
    """

    def __init__(self, sim: "Simulator", capacity: int = 1,
                 name: str = "pool") -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.name = name
        self.capacity = capacity
        # Each slot's free instant, as a min-heap.
        self._free = [0.0] * capacity

    def reserve(self, duration: float) -> float:
        """Claim the earliest-free slot for ``duration`` ns; return the
        instant the hold finishes."""
        if not duration >= 0:  # also rejects NaN
            raise ValueError(
                f"{self.name}: hold length must be >= 0, got {duration}")
        free = self._free
        start = self.sim.now
        if free[0] > start:
            start = free[0]
        finish = start + duration
        heapq.heapreplace(free, finish)
        return finish

    def reserve_many(self, count: int, duration: float) -> float:
        """Claim ``count`` slots for ``duration`` ns each, one after
        another; return the last finish (the current instant when
        ``count`` is 0).

        The claims take the slots and get the floats ``count`` calls of
        :meth:`reserve` would, in the same order.  Each takes the
        earliest-free slot, so their starts, and their finishes, never
        decrease: the last finish is the latest.  ``duration`` is
        checked once, before any slot moves.
        """
        if not duration >= 0:  # also rejects NaN
            raise ValueError(
                f"{self.name}: hold length must be >= 0, got {duration}")
        free = self._free
        now = finish = self.sim.now
        for _ in range(count):
            start = free[0]
            if start < now:
                start = now
            finish = start + duration
            heapq.heapreplace(free, finish)
        return finish

    def hold(self, duration: float) -> typing.Generator:
        """Process body: hold one slot for ``duration`` ns."""
        yield self.sim.deadline(self.reserve(duration))


class Store:
    """Unbounded-or-bounded FIFO of items passed between processes."""

    def __init__(self, sim: "Simulator", capacity: float = float("inf"),
                 name: str = "store") -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.sim = sim
        self.name = name
        self.capacity = capacity
        self.items: typing.Deque[object] = collections.deque()
        self._getters: typing.Deque[Event] = collections.deque()
        self._putters: typing.Deque[typing.Tuple[Event, object]] = (
            collections.deque()
        )

    def __len__(self) -> int:
        return len(self.items)

    def put(self, item: object) -> Event:
        """Deposit ``item``; triggers when space is available."""
        event = Event(self.sim, name=f"put({self.name})")
        if self._getters:
            self._getters.popleft().succeed(item)
            event.succeed()
        elif len(self.items) < self.capacity:
            self.items.append(item)
            event.succeed()
        else:
            self._putters.append((event, item))
        return event

    def get(self) -> Event:
        """Withdraw the oldest item; triggers with that item."""
        event = Event(self.sim, name=f"get({self.name})")
        if self.items:
            event.succeed(self.items.popleft())
            if self._putters:
                putter, item = self._putters.popleft()
                self.items.append(item)
                putter.succeed()
        else:
            self._getters.append(event)
        return event


class Channel:
    """A link with fixed latency and finite bandwidth (bus, PCIe lane).

    A transfer of ``size`` bytes occupies the channel for
    ``size / bandwidth`` ns and completes ``latency`` ns after its last
    byte leaves — the standard store-and-forward pipe model.  Transfers
    serialize; concurrent senders queue.  A transfer's occupancy is
    known when it starts, so the link is a one-slot :class:`Pool`.
    """

    def __init__(self, sim: "Simulator", bandwidth_bytes_per_ns: float,
                 latency_ns: float = 0.0, name: str = "channel") -> None:
        if bandwidth_bytes_per_ns <= 0:
            raise ValueError(
                f"bandwidth must be positive, got {bandwidth_bytes_per_ns}"
            )
        if latency_ns < 0:
            raise ValueError(f"latency must be >= 0, got {latency_ns}")
        self.sim = sim
        self.name = name
        self.bandwidth = bandwidth_bytes_per_ns
        self.latency = latency_ns
        self._lock = Pool(sim, capacity=1, name=f"{name}.lock")
        self.bytes_transferred = 0.0
        self.busy_time = 0.0

    def occupancy_time(self, size_bytes: float) -> float:
        """Time the channel is held by a ``size_bytes`` transfer."""
        return size_bytes / self.bandwidth

    def transfer_time(self, size_bytes: float) -> float:
        """End-to-end time for a transfer, including wire latency."""
        return self.occupancy_time(size_bytes) + self.latency

    def transfer(self, size_bytes: float) -> typing.Generator:
        """Process body: move ``size_bytes`` across the channel."""
        if size_bytes < 0:
            raise ValueError(f"negative transfer size: {size_bytes}")
        hold = self.occupancy_time(size_bytes)
        yield from self._lock.hold(hold)
        self.busy_time += hold
        self.bytes_transferred += size_bytes
        yield self.sim.timeout(self.latency)
