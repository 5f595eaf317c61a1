"""Generator-driven simulation processes."""

from __future__ import annotations

import typing
from types import GeneratorType

from repro.sim.event import Event, Interrupt

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.engine import Simulator


class Process(Event):
    """Wraps a generator so it can run inside the simulator.

    A process is itself an :class:`~repro.sim.event.Event`: it triggers
    with the generator's return value when the generator finishes, so
    other processes can ``yield`` it to join on completion.

    The generator may yield:

    * an :class:`Event` (including :class:`Timeout`, another
      :class:`Process`, or an :class:`AllOf`/:class:`AnyOf` condition) —
      the process suspends until that event triggers and receives the
      event's value at the resumption point;
    * nothing else — yielding any other object raises ``TypeError``
      inside the generator, per "errors should never pass silently".

    A :class:`Join` makes its children with ``join`` set: such a
    process has no bootstrap, and it finishes into the join rather than
    triggering as an event of its own.
    """

    __slots__ = ("_generator", "_waiting_on", "_finish")

    def __init__(self, sim: "Simulator", generator: typing.Generator,
                 name: str = "", *, join: "Join | None" = None) -> None:
        if type(generator) is not GeneratorType and (
                not hasattr(generator, "send")
                or not hasattr(generator, "throw")):
            raise TypeError(
                f"Process requires a generator, got {type(generator).__name__}"
            )
        # The fields of the process and of its bootstrap event are set
        # here rather than through Event.__init__, as in Timeout, to
        # save two calls per spawn.
        self.sim = sim
        self._name = name or getattr(generator, "__name__", "process")
        self.callbacks = []
        self._value = None
        self._ok = True
        self._triggered = False
        self._processed = False
        self._generator = generator
        self._waiting_on: Event | None = None
        if join is not None:
            # A child of a Join: the join runs its first step and takes
            # its completion, so it has no bootstrap and no completion
            # event.
            self._finish: typing.Callable[[Event], None] = join._child_done
            return
        self._finish = sim._trigger
        # Kick off on the next kernel step so creation order does not
        # matter within a single simulated instant.
        bootstrap = Event.__new__(Event)
        bootstrap.sim = sim
        bootstrap._name = self._bootstrap_label
        bootstrap.callbacks = [self._resume]
        bootstrap._value = None
        bootstrap._ok = True
        bootstrap._triggered = True
        bootstrap._processed = False
        sim._spawn(bootstrap)

    def _bootstrap_label(self) -> str:
        return f"{self.name}.bootstrap"

    def _passthrough_label(self) -> str:
        return f"{self.name}.passthrough"

    @property
    def is_alive(self) -> bool:
        """True while the underlying generator has not finished."""
        return not self._triggered

    def interrupt(self, cause: object = None) -> None:
        """Throw :class:`Interrupt` into the process at its wait point."""
        if self._triggered:
            raise RuntimeError(f"{self!r} has already terminated")
        waiting = self._waiting_on
        if waiting is not None and self._resume in waiting.callbacks:
            waiting.callbacks.remove(self._resume)
        self._throw(Interrupt(cause))

    def _throw(self, exception: BaseException) -> None:
        """Raise ``exception`` inside the generator at its wait point."""
        carrier = Event(self.sim)  # never scheduled: carries the failure
        carrier._ok = False
        carrier._value = exception
        self._resume(carrier)

    # ------------------------------------------------------------------
    # _resume runs once per process wake-up: it steps the generator
    # itself and reads the event slots directly rather than through the
    # public properties.  It calls no observer hook: the race sanitizer
    # names a task's actors when the task is dispatched.
    def _resume(self, event: Event) -> None:
        self._waiting_on = None
        sim = self.sim
        try:
            if event._ok:
                target = self._generator.send(event._value)
            else:
                target = self._generator.throw(
                    typing.cast(BaseException, event._value))
        except StopIteration as stop:
            # Event.succeed() written out: the process triggers with the
            # generator's return value, to its waiters or its join.
            if self._triggered:
                raise RuntimeError(f"{self!r} has already been triggered")
            self._value = stop.value
            self._triggered = True
            self._finish(self)
            return
        except BaseException as exc:
            # Event.fail() written out, finishing the same way.
            if self._triggered:
                raise RuntimeError(f"{self!r} has already been triggered")
            self._ok = False
            self._value = exc
            self._triggered = True
            self._finish(self)
            return
        if not isinstance(target, Event):
            self._throw(TypeError(
                f"process {self.name!r} yielded {target!r}; "
                "processes may only yield Event instances"
            ))
            return
        if target._processed:
            # Already in the past; resume immediately on the next step.
            passthrough = Event(sim)
            passthrough._name = self._passthrough_label
            passthrough._ok = target._ok
            passthrough._value = target._value
            passthrough._triggered = True
            passthrough.callbacks.append(self._resume)
            sim._schedule(0.0, passthrough)
            self._waiting_on = passthrough
        else:
            target.callbacks.append(self._resume)
            self._waiting_on = target


#: What a join child's first step is sent: success, no value.  Never
#: scheduled; it only carries ``_ok`` and ``_value`` into ``_resume``.
_START = Event.__new__(Event)
_START._ok = True
_START._value = None


class Join(Event):
    """A fan-out of child processes and the join on their results.

    Each generator runs as a :class:`Process` that starts at once: its
    first step runs inside the step that creates the join, in order, so
    no bootstrap is dispatched.  A child that finishes hands its result
    to the join inside its own last step, so no completion is
    dispatched either.  The join triggers with the children's return
    values, in order, when the last one finishes, or fails with the
    first child failure (children still running keep running, as
    under :class:`~repro.sim.event.AllOf`).

    ``sim.all_of([sim.process(g) for g in generators])`` waits for the
    same results with a bootstrap and a completion per child, plus the
    condition's own trigger.
    """

    __slots__ = ("_children", "_pending")

    def __init__(self, sim: "Simulator",
                 generators: typing.Iterable[typing.Generator]) -> None:
        super().__init__(sim)
        children = [Process(sim, generator, join=self)
                    for generator in generators]
        self._children = children
        self._pending = len(children)
        if not children:
            self.succeed([])
        for child in children:
            child._resume(_START)

    def _child_done(self, child: Event) -> None:
        if self._triggered:
            return  # an earlier child failed
        # Each child finishes into this join, so the join lets go of
        # its children once it triggers: the cycle would otherwise
        # outlive the request until a cyclic collection.
        if not child._ok:
            self._children = []
            self.fail(typing.cast(BaseException, child._value))
            return
        self._pending -= 1
        if not self._pending:
            children, self._children = self._children, []
            self.succeed([done._value for done in children])
