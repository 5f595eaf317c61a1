"""Contended-resource primitives: resources, stores, and channels."""

from __future__ import annotations

import collections
import typing

from repro.sim.event import Event

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.engine import Simulator


class Request(Event):
    """Pending claim on a :class:`Resource` slot.

    Reads as ``request(<resource name>)``.
    """

    __slots__ = ("resource",)

    def __init__(self, resource: "Resource") -> None:
        # One request per bus or pair claim: fields are set inline, as
        # in Timeout, and the label is built only when read.
        self.sim = resource.sim
        self._name = ""
        self.callbacks = []
        self._value = None
        self._ok = True
        self._triggered = False
        self._processed = False
        self.resource = resource

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
    """

    def __init__(self, sim: "Simulator", capacity: int = 1,
                 name: str = "resource") -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.name = name
        self.capacity = capacity
        self._users: typing.Set[Request] = set()
        self._queue: typing.Deque[Request] = collections.deque()
        # The sanitizer's slot hooks live in separate methods, bound
        # over request/release per instance (as Simulator does with
        # _schedule), so unsanitized claims pay nothing for them.
        if sim._sanitizing:
            self.request = (  # type: ignore[method-assign]
                self._request_sanitized)
            self.release = (  # type: ignore[method-assign]
                self._release_sanitized)

    @property
    def count(self) -> int:
        """Number of slots currently claimed."""
        return len(self._users)

    @property
    def queue_length(self) -> int:
        """Number of requests waiting for a slot."""
        return len(self._queue)

    def request(self) -> Request:
        """Claim a slot; the returned event triggers when granted."""
        req = Request(self)
        if len(self._users) < self.capacity:
            self._users.add(req)
            # req.succeed() written out (the request is fresh, so it
            # cannot have been triggered): one frame fewer per grant.
            req._triggered = True
            self.sim._trigger(req)
        else:
            self._queue.append(req)
        return req

    def release(self, request: Request) -> None:
        """Return a previously granted slot to the pool.

        Hand-offs to queued waiters happen inside the releasing task,
        so release -> next-grant is a happens-before edge by
        construction; under a sanitizer the hooks label it explicitly
        so racecheck reports can distinguish Resource causality from
        ordinary scheduling.
        """
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
            # waiter.succeed() written out, its double-trigger check kept.
            if waiter._triggered:
                raise RuntimeError(f"{waiter!r} has already been triggered")
            waiter._triggered = True
            self.sim._trigger(waiter)

    # request() and release() with the sanitizer's hooks.  Each hook
    # fires before the grant's succeed(), so the sanitizer labels that
    # schedule edge "acquire" or "grant" rather than "trigger".
    def _request_sanitized(self) -> Request:
        sanitizer = self.sim._sanitizer
        assert sanitizer is not None
        req = Request(self)
        if len(self._users) < self.capacity:
            self._users.add(req)
            sanitizer.on_acquire(self, req)
            req.succeed()
        else:
            self._queue.append(req)
        return req

    def _release_sanitized(self, request: Request) -> None:
        sanitizer = self.sim._sanitizer
        assert sanitizer is not None
        if request in self._users:
            self._users.remove(request)
            sanitizer.on_release(self, request)
        elif request in self._queue:
            self._queue.remove(request)
            return
        else:
            raise ValueError(f"{request!r} does not hold {self.name}")
        while self._queue and len(self._users) < self.capacity:
            waiter = self._queue.popleft()
            self._users.add(waiter)
            sanitizer.on_grant(self, waiter)
            waiter.succeed()

    def use(self, duration: float) -> typing.Generator:
        """Convenience process body: hold one slot for ``duration`` ns."""
        req = self.request()
        yield req
        try:
            yield self.sim.timeout(duration)
        finally:
            self.release(req)


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
    serialize; concurrent senders queue.
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
        self._lock = Resource(sim, capacity=1, name=f"{name}.lock")
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
        req = self._lock.request()
        yield req
        try:
            hold = self.occupancy_time(size_bytes)
            yield self.sim.timeout(hold)
            self.busy_time += hold
            self.bytes_transferred += size_bytes
        finally:
            self._lock.release(req)
        yield self.sim.timeout(self.latency)
