"""Primitive event types for the simulation kernel.

Events move through three states: *pending* (created, not scheduled),
*triggered* (scheduled on the simulator with a value), and
*processed* (callbacks ran).  Processes wait on events by ``yield``-ing
them; the kernel wires the resumption up through the callback list.
"""

from __future__ import annotations

import typing

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.engine import Simulator


class Event:
    """A one-shot occurrence in simulated time.

    Parameters
    ----------
    sim:
        Owning simulator.  Events can only be triggered on the simulator
        that created them.
    name:
        Optional label used in ``repr`` and error messages.

    Labels are built on demand.  Untraced runs never read them, so the
    kernel's own events (timeouts, resource grants, process bootstraps)
    store what their label is made of and format it only when
    :attr:`name` is read — by the tracer, the race sanitizer, the host
    profiler, ``repr`` or an error message.
    """

    # Experiments allocate events by the million (one Timeout per
    # device latency); slotted instances skip the per-object __dict__,
    # which measurably cuts both allocation time and peak memory on the
    # full figure sweep.  Subclasses declare their own additions.
    __slots__ = ("sim", "_name", "callbacks", "_value", "_ok",
                 "_triggered", "_processed", "__weakref__")

    def __init__(self, sim: "Simulator", name: str = "") -> None:
        self.sim = sim
        self._name: str | typing.Callable[[], str] = name
        self.callbacks: typing.List[typing.Callable[["Event"], None]] = []
        self._value: object = None
        self._ok = True
        self._triggered = False
        self._processed = False

    @property
    def name(self) -> str:
        """The event's label (``""`` for an anonymous plain event).

        A callable stored in place of the label is called to build it.
        """
        name = self._name
        return name if isinstance(name, str) else name()

    @property
    def triggered(self) -> bool:
        """True once the event has been scheduled with a value."""
        return self._triggered

    @property
    def processed(self) -> bool:
        """True once callbacks have run (the event is fully in the past)."""
        return self._processed

    @property
    def ok(self) -> bool:
        """False when the event carries a failure (exception) value."""
        return self._ok

    @property
    def value(self) -> object:
        """The payload the event was triggered with."""
        return self._value

    def succeed(self, value: object = None) -> "Event":
        """Trigger the event successfully, delivering ``value`` to waiters."""
        if self._triggered:
            raise RuntimeError(f"{self!r} has already been triggered")
        self._ok = True
        self._value = value
        self._triggered = True
        # Zero delay: straight onto the ready queue.  An observer of
        # schedules swaps the hooked schedule in per simulator (see
        # Simulator._trigger), so an unobserved trigger pays none.
        self.sim._trigger(self)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception; waiters will see it raised."""
        if self._triggered:
            raise RuntimeError(f"{self!r} has already been triggered")
        if not isinstance(exception, BaseException):
            raise TypeError("fail() requires an exception instance")
        self._ok = False
        self._value = exception
        self._triggered = True
        self.sim._trigger(self)
        return self

    def __repr__(self) -> str:
        label = self.name or self.__class__.__name__
        state = (
            "processed" if self._processed
            else "triggered" if self._triggered
            else "pending"
        )
        return f"<{label} ({state})>"


class Timeout(Event):
    """An event that fires ``delay`` nanoseconds after creation.

    Unnamed timeouts read as ``Timeout(<delay>)``.
    """

    __slots__ = ("_delay",)

    def __init__(self, sim: "Simulator", delay: float, value: object = None,
                 name: str = "") -> None:
        if delay < 0:
            raise ValueError(f"negative timeout delay: {delay}")
        # One timeout per device latency: the fields are set here
        # rather than through Event.__init__ to save a call per event.
        self.sim = sim
        self._name = name
        self.callbacks = []
        self._value = value
        self._ok = True
        self._triggered = True
        self._processed = False
        self._delay = delay
        sim._schedule(delay, self)

    @classmethod
    def at(cls, sim: "Simulator", when: float,
           value: object = None) -> "Timeout":
        """A timeout that fires at exactly the instant ``when``.

        The backing of :meth:`Simulator.deadline`, which validates
        ``when``.  It reads as ``Timeout(<when - now>)``, as a relative
        timeout of that length would.
        """
        timeout = cls.__new__(cls)
        timeout.sim = sim
        timeout._name = ""
        timeout.callbacks = []
        timeout._value = value
        timeout._ok = True
        timeout._triggered = True
        timeout._processed = False
        timeout._delay = when - sim.now
        sim._schedule_at(when, timeout)
        return timeout

    @property
    def name(self) -> str:
        return self._name or f"Timeout({self._delay})"


class Interrupt(Exception):
    """Raised inside a process that another process interrupted."""

    def __init__(self, cause: object = None) -> None:
        super().__init__(cause)
        self.cause = cause


class _Condition(Event):
    """Base for AllOf / AnyOf combinators."""

    __slots__ = ("_events", "_pending")

    def __init__(self, sim: "Simulator", events: typing.Sequence[Event],
                 name: str = "") -> None:
        super().__init__(sim, name)
        self._events = list(events)
        self._pending = 0
        for event in self._events:
            if event.sim is not sim:
                raise ValueError("all events must belong to the same simulator")
            if event._processed:
                self._observe(event)
            else:
                event.callbacks.append(self._observe)
                self._pending += 1
        self._check()

    def _observe(self, event: Event) -> None:
        if self._triggered:
            return
        if not event._ok:
            self.fail(typing.cast(BaseException, event._value))
            return
        self._pending -= 1
        self._check()

    def _collect(self) -> typing.Dict["Event", object]:
        return {
            event: event._value for event in self._events if event._triggered
        }

    def _check(self) -> None:  # pragma: no cover - abstract
        raise NotImplementedError


class AllOf(_Condition):
    """Triggers when every child event has triggered successfully."""

    __slots__ = ()

    def _check(self) -> None:
        if not self._triggered and self._pending <= 0:
            self.succeed(self._collect())


class AnyOf(_Condition):
    """Triggers when any child event triggers successfully."""

    __slots__ = ()

    def _check(self) -> None:
        if self._triggered:
            return
        if self._pending < len(self._events) or not self._events:
            self.succeed(self._collect())
