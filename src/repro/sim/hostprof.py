"""Kernel-side hooks for host wall-clock profiling.

This module is the *engine half* of :mod:`repro.telemetry.hostprof`,
with no dependency on the telemetry package (which imports
:mod:`repro.sim`) — mirroring :mod:`repro.sim.sampling` and
:mod:`repro.sim.sanitizer`:

* a *provider* (any object with ``create_hostprof()``) is installed
  with :func:`use_hostprof`; :func:`current_hostprof` reads it back.
* each :class:`~repro.sim.engine.Simulator` asks the provider for a
  :class:`HostProfilerHook` at construction and attaches it as a
  kernel observer (:mod:`repro.sim.observer`); a provider may return
  ``None``, leaving the fast drain untouched.
* the profiler reads its own injectable :attr:`HostProfilerHook.clock`
  in ``begin_run``/``end_run`` and ``begin_dispatch``/``end_dispatch``.
  Every dispatch of a drain lands between its ``begin_run`` and
  ``end_run``, so the dispatch segments and the gaps between them (the
  kernel's own queue work) tile the drain's wall clock.
"""

from __future__ import annotations

import contextlib
# Host wall-clock attribution is this hook's entire purpose; simulated
# time stays in the event heap.  This is the one sanctioned
# perf-counter import in the kernel.
import time  # noqa: SIM001
import typing

from repro.sim.observer import KernelObserver, current_scope, scoped

#: A host clock: returns integer nanoseconds, monotonic.
HostClock = typing.Callable[[], int]


class HostProfilerHook(KernelObserver):
    """Base of host wall-clock profilers.

    :class:`repro.telemetry.hostprof.HostProfiler` overrides the run,
    dispatch, batch and schedule hooks.  ``clock`` is the host time
    source it reads — injectable so tests can stub it with a counter.
    """

    clock: HostClock = staticmethod(time.perf_counter_ns)


class HostProfilingProvider(typing.Protocol):
    """Anything that can supply per-simulator profiler hooks."""

    def create_hostprof(self) -> typing.Optional[HostProfilerHook]:
        """Return a hook for one simulator, or ``None`` to opt out."""
        ...


def current_hostprof() -> typing.Optional[HostProfilingProvider]:
    """The ambient profiling provider, or ``None`` when profiling is off."""
    return current_scope().hostprof


@contextlib.contextmanager
def use_hostprof(
    provider: typing.Optional[HostProfilingProvider],
) -> typing.Iterator[typing.Optional[HostProfilingProvider]]:
    """Install ``provider`` as the ambient host-profiling provider.

    Simulators constructed inside the ``with`` block ask it for a
    profiler hook; ``None`` restores the disabled default.
    """
    with scoped(hostprof=provider):
        yield provider
