"""One seam for everything that watches the simulation kernel.

The kernel-event trace (:class:`TraceFeed`), the race sanitizer
(:class:`repro.analysis.racecheck.RaceSanitizer`), the windowed sampler
(:class:`repro.telemetry.timeseries.Sampler`) and the host profiler
(:mod:`repro.sim.hostprof`) are all :class:`KernelObserver`\\ s: a
no-op base whose subclasses override the hooks they need.  A simulator
wraps what it attaches in one :class:`CompositeObserver`.  Only
``on_schedule`` needs a hooked route: a simulator binds its hooked
``_schedule``/``_schedule_at`` (and routes zero-delay triggers and
spawns through them) only when some observer overrides it, so an
unobserved run calls no hook.

What a simulator attaches, besides its tracer, comes from one ambient
:class:`KernelScope`: ``use_sanitizer`` and
:func:`repro.analysis.determinism.capture_trace` append to its
observers (:func:`observing`), and ``use_tiebreak``, ``use_sampling``
and ``use_hostprof`` each set one other field of it for a ``with``
body.  Nothing here imports the telemetry or analysis layers, so they
can subclass these observers without an import cycle.
"""

from __future__ import annotations

import contextlib
import contextvars
import typing

from repro.sim.process import Process

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.event import Event
    from repro.sim.hostprof import HostProfilingProvider
    from repro.sim.sampling import SamplingProvider


class KernelObserver:
    """No-op base of every kernel observer; override what you need."""

    def on_schedule(self, event: "Event") -> None:
        """``event`` was admitted to a queue by the running task (or
        from outside ``run()``, the root task): a timeout, a trigger
        (succeed/fail, a resource grant, a process completion), a
        hold's end or a process bootstrap."""

    def begin_run(self) -> None:
        """One ``run()`` drain started; every dispatch of it follows."""

    def end_run(self) -> None:
        """The drain that :meth:`begin_run` opened finished."""

    def advance(self, now: float) -> None:
        """The clock reached ``now`` (once per instant, before its
        events, and once more at ``run(until)``'s stop time)."""

    def begin_dispatch(self, event: "Event", now: float) -> None:
        """``event`` was taken off the queues; its callbacks are still
        attached."""

    def end_dispatch(self, event: "Event",
                     callbacks: typing.Sequence[typing.Callable[..., None]]
                     ) -> None:
        """``event``'s ``callbacks``, detached from it, ran."""

    def on_batch(self, size: int) -> None:
        """An instant finished draining after ``size`` dispatches."""


#: Every hook of :class:`KernelObserver`.
HOOKS = tuple(name for name in vars(KernelObserver)
              if not name.startswith("_"))


class CompositeObserver(KernelObserver):
    """The observers a simulator attached, behind one observer.

    Each hook some observer overrides is bound on the instance: to that
    observer's method, or to a fan-out in attach order when several
    override it.  The rest stay no-ops.  The kernel reads :attr:`hooks`
    to decide which routes need a hooked variant.
    """

    def __init__(self, observers: typing.Sequence[KernelObserver]) -> None:
        bound = []
        for hook in HOOKS:
            noop = getattr(KernelObserver, hook)
            calls = [getattr(observer, hook) for observer in observers
                     if getattr(type(observer), hook) is not noop]
            if calls:
                bound.append(hook)
                setattr(self, hook,
                        calls[0] if len(calls) == 1 else _fan_out(calls))
        #: The hooks at least one attached observer overrides.
        self.hooks: typing.FrozenSet[str] = frozenset(bound)


def _fan_out(calls: typing.Sequence[typing.Callable[..., None]]
             ) -> typing.Callable[..., None]:
    def hook(*args: typing.Any) -> None:
        for call in calls:
            call(*args)
    return hook


def event_owner(event: "Event") -> typing.Optional[Process]:
    """The first named process among ``event``'s callbacks (the process
    the event resumes), or ``None``."""
    for callback in event.callbacks:
        owner = getattr(callback, "__self__", None)
        if isinstance(owner, Process) and owner.name:
            return owner
    return None


def event_label(event: "Event") -> str:
    """Human-readable label of a dispatched event.

    Named events keep their name.  Anonymous events (timeouts, resource
    grants) read ``ClassName:owner``, where the owner is the process
    waiting on them; without this, traces degrade to a wall of bare
    ``Timeout``/``Event`` entries.
    """
    name = event.name
    if name:
        return name
    owner = event_owner(event)
    label = type(event).__name__
    return f"{label}:{owner.name}" if owner is not None else label


#: One entry of a kernel-event trace: ``(timestamp, event label)``.
TraceEntry = typing.Tuple[float, str]


class TraceFeed(KernelObserver):
    """The kernel-event trace: appends one entry per dispatch to
    ``sink``, in dispatch order."""

    def __init__(self, sink: typing.List[TraceEntry]) -> None:
        self.sink = sink

    def begin_dispatch(self, event: "Event", now: float) -> None:
        self.sink.append((now, event_label(event)))


class KernelScope(typing.NamedTuple):
    """What a simulator attaches at construction, besides the tracer.

    ``observers`` attach as they are, in order.  ``sampling`` and
    ``hostprof`` are providers: each simulator asks them for its own
    hook, and a provider may decline with ``None``.  ``tiebreak_seed``
    makes ``run()`` shuffle each same-instant wave.
    """

    observers: typing.Tuple[KernelObserver, ...] = ()
    tiebreak_seed: typing.Optional[int] = None
    sampling: typing.Optional["SamplingProvider"] = None
    hostprof: typing.Optional["HostProfilingProvider"] = None


_SCOPE: contextvars.ContextVar[KernelScope] = contextvars.ContextVar(
    "repro_sim_kernel_scope", default=KernelScope())


def current_scope() -> KernelScope:
    """The context's ambient kernel scope."""
    return _SCOPE.get()


@contextlib.contextmanager
def scoped(**fields: typing.Any) -> typing.Iterator[None]:
    """Set ``fields`` of the ambient scope for the body; the other
    fields keep their values, and nested uses restore by token."""
    token = _SCOPE.set(_SCOPE.get()._replace(**fields))
    try:
        yield
    finally:
        _SCOPE.reset(token)


@contextlib.contextmanager
def observing(observer: KernelObserver) -> typing.Iterator[None]:
    """Attach ``observer`` to every simulator built in the body, after
    the observers the scope already holds."""
    with scoped(observers=_SCOPE.get().observers + (observer,)):
        yield
