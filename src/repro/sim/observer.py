"""One seam for everything that watches the simulation kernel.

The tracer's kernel-event feed (:class:`TraceFeed`), the race sanitizer
(:mod:`repro.sim.sanitizer`), the windowed sampler
(:mod:`repro.sim.sampling`) and the host profiler
(:mod:`repro.sim.hostprof`) are all :class:`KernelObserver`\\ s: a
no-op base whose subclasses override the hooks they need.  A simulator
wraps what it attaches in one :class:`CompositeObserver` and binds a
hooked route only where some observer overrides the hook: the hooked
``_schedule``/``_schedule_at`` for ``on_schedule``, ``_trigger`` for
``on_trigger``, a ``Resource``'s ``request`` for ``on_acquire`` and its
``release`` for ``on_release``/``on_grant``.  Every other route keeps
its hook-free body, so a run with only the host profiler attached never
calls the sanitizer's hooks, and an unobserved run calls none.

What a simulator attaches, besides the tracer, comes from one ambient
:class:`KernelScope`; ``use_sanitizer``, ``use_tiebreak``,
``use_sampling`` and ``use_hostprof`` each set one field of it for a
``with`` body.  Nothing here imports the telemetry or analysis layers,
so they can subclass these observers without an import cycle.
"""

from __future__ import annotations

import contextlib
import contextvars
import typing

from repro.sim.process import Process

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.event import Event
    from repro.sim.hostprof import HostProfilingProvider
    from repro.sim.resource import Request, Resource
    from repro.sim.sampling import SamplingProvider
    from repro.sim.sanitizer import KernelSanitizer
    from repro.telemetry.tracer import Tracer


class KernelObserver:
    """No-op base of every kernel observer; override what you need."""

    def on_schedule(self, event: "Event") -> None:
        """``event`` was admitted to a queue by the running task (or
        from outside ``run()``, the root task)."""

    def on_trigger(self, event: "Event", ok: bool) -> None:
        """``event`` is being triggered (succeed/fail, a resource grant
        or a process completion); fires before its ``on_schedule``."""

    def on_acquire(self, resource: "Resource", request: "Request") -> None:
        """``request`` was granted a free ``resource`` slot immediately."""

    def on_grant(self, resource: "Resource", request: "Request") -> None:
        """A queued ``request`` is being handed a released slot."""

    def on_release(self, resource: "Resource", request: "Request") -> None:
        """``request`` returned its ``resource`` slot."""

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
    label = type(event).__name__
    for callback in event.callbacks:
        owner = getattr(callback, "__self__", None)
        if isinstance(owner, Process) and owner.name:
            return f"{label}:{owner.name}"
    return label


class TraceFeed(KernelObserver):
    """The tracer's kernel-event stream: one line per dispatch.

    Attached only for a tracer that overrides ``kernel_event`` (a
    :class:`~repro.telemetry.tracer.KernelEventRecorder`, or a
    ``MultiTracer`` fan-out), so a span-only recorder builds no labels.
    """

    def __init__(self, tracer: "Tracer") -> None:
        self.tracer = tracer

    def begin_dispatch(self, event: "Event", now: float) -> None:
        self.tracer.kernel_event(now, event_label(event))


class KernelScope(typing.NamedTuple):
    """What a simulator attaches at construction, besides the tracer.

    ``sampling`` and ``hostprof`` are providers: each simulator asks
    them for its own hook, and a provider may decline with ``None``.
    ``tiebreak_seed`` makes ``run()`` shuffle each same-instant wave.
    """

    sanitizer: typing.Optional["KernelSanitizer"] = None
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
