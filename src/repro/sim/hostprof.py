"""Kernel-side hooks for host wall-clock profiling.

This module is the *engine half* of :mod:`repro.telemetry.hostprof`:
it defines the hook interface the kernel calls into and the ambient
installation slot, with no dependency on the telemetry package (the
telemetry package imports :mod:`repro.sim`, so the dependency must
point this way to avoid a cycle) — mirroring
:mod:`repro.sim.sampling` and :mod:`repro.sim.sanitizer`.

The contract mirrors the sampling ambient:

* a *provider* (any object with ``create_hostprof()``) is installed
  with :func:`use_hostprof`; :func:`current_hostprof` reads it back.
* each :class:`~repro.sim.engine.Simulator` asks the provider for a
  :class:`HostProfilerHook` at construction.  A provider may return
  ``None``, in which case the engine keeps its untouched zero-overhead
  fast drain.
* with a hook bound, ``run()`` drains through a dedicated profiled
  loop that reads the hook's ``clock`` around every event dispatch.
  Hook timing contract (what the kernel guarantees):

  - :meth:`HostProfilerHook.begin_run` / :meth:`HostProfilerHook.end_run`
    bracket one ``run()`` drain; every dispatch segment lands between
    them, so the segments tile the drain's wall clock with no gaps
    (inter-dispatch time is the kernel's own queue work).
  - :meth:`HostProfilerHook.on_dispatch` fires after each event's
    callbacks ran, with the *pre-dispatch* callback list (so the hook
    can attribute the event to the process that was resumed) and the
    ``[start, end)`` host-clock segment the callbacks occupied.
  - :meth:`HostProfilerHook.on_batch` fires once per same-timestamp
    batch with the batch size (the census the batched fast drain — and
    any future compiled kernel — must reproduce).
  - :meth:`HostProfilerHook.on_schedule` fires per admitted
    ``_schedule`` call (the schedule census); it is swapped in as an
    instance attribute like the sanitized variant, so the
    uninstrumented scheduling fast path keeps its guard-free body.

The seeded tie-break shuffle drain (``tiebreak_seed``) takes priority
over the profiled drain: shuffle mode is a debug oracle, and host
timing under a randomized dispatch order would not be attributable
anyway.  The schedule census still fires there.
"""

from __future__ import annotations

import contextlib
import contextvars
# Host wall-clock attribution is this hook's entire purpose; simulated
# time stays in the event heap.  This is the one sanctioned
# perf-counter import in the kernel.
import time  # noqa: SIM001
import typing

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.event import Event

#: A host clock: returns integer nanoseconds, monotonic.
HostClock = typing.Callable[[], int]


class HostProfilerHook:
    """Observation interface for host wall-clock attribution.

    All hooks are no-ops;
    :class:`repro.telemetry.hostprof.HostProfiler` overrides them to
    accumulate (component, process, phase, event-kind) buckets and the
    dispatch census.  ``clock`` is the host time source the engine
    reads — injectable so determinism tests can stub it with a counter.
    """

    clock: HostClock = staticmethod(time.perf_counter_ns)

    def begin_run(self, host_ns: int) -> None:
        """One ``run()`` drain started; ``host_ns`` is the clock now."""

    def end_run(self, host_ns: int) -> None:
        """The drain that :meth:`begin_run` opened finished."""

    def on_dispatch(self, event: "Event",
                    callbacks: typing.Sequence[typing.Callable[..., None]],
                    start_ns: int, end_ns: int) -> None:
        """``event``'s callbacks ran over host ``[start_ns, end_ns)``.

        ``callbacks`` is the pre-dispatch callback list (the event's
        own list has already been detached), so bound-method owners are
        still discoverable for attribution.
        """

    def on_batch(self, size: int) -> None:
        """A same-timestamp batch of ``size`` events finished draining."""

    def on_schedule(self, event: "Event") -> None:
        """``event`` was scheduled (schedule census)."""


class HostProfilingProvider(typing.Protocol):
    """Anything that can supply per-simulator profiler hooks."""

    def create_hostprof(self) -> typing.Optional[HostProfilerHook]:
        """Return a hook for one simulator, or ``None`` to opt out."""
        ...


_ambient_hostprof: "contextvars.ContextVar[typing.Optional[HostProfilingProvider]]" = (
    contextvars.ContextVar("repro_hostprof", default=None))


def current_hostprof() -> typing.Optional[HostProfilingProvider]:
    """The ambient profiling provider, or ``None`` when profiling is off."""
    return _ambient_hostprof.get()


@contextlib.contextmanager
def use_hostprof(
    provider: typing.Optional[HostProfilingProvider],
) -> typing.Iterator[typing.Optional[HostProfilingProvider]]:
    """Install ``provider`` as the ambient host-profiling provider.

    Simulators constructed inside the ``with`` block ask it for a
    profiler hook; ``None`` restores the disabled default.
    """
    token = _ambient_hostprof.set(provider)
    try:
        yield provider
    finally:
        _ambient_hostprof.reset(token)
