"""Kernel-side hooks for the race sanitizer and the tie-break oracle.

This module is the *engine half* of :mod:`repro.analysis.racecheck`,
with no dependency on the analysis package (which imports
:mod:`repro.sim`, so the dependency must point this way):

* :class:`KernelSanitizer` — a kernel observer
  (:mod:`repro.sim.observer`) that adds the task view the
  happens-before graph needs.
* The **tie-break shuffle seed** — makes
  :meth:`repro.sim.engine.Simulator.run` drain each same-instant wave
  in a seeded random permutation instead of FIFO order.  The shuffle
  oracle (:func:`repro.analysis.racecheck.certify_tiebreak_independence`)
  uses it to test whether a workload's final stats depend on the
  kernel's tie-break policy.

Both ride in the ambient :class:`~repro.sim.observer.KernelScope`:
simulators resolve it at construction, so harnesses wrap workloads
without threading arguments through every constructor.
"""

from __future__ import annotations

import contextlib
import typing

from repro.sim.observer import (
    KernelObserver,
    current_scope,
    event_label,
    scoped,
)
from repro.sim.process import Process

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.event import Event


class KernelSanitizer(KernelObserver):
    """Observer of kernel causality and task boundaries.

    :class:`repro.analysis.racecheck.RaceSanitizer` overrides the
    scheduling, trigger and resource hooks of
    :class:`~repro.sim.observer.KernelObserver` plus the two task hooks
    here to build the happens-before graph.
    """

    def begin_dispatch(self, event: "Event", now: float) -> None:
        self.begin_task(event, now, event_label(event))
        # Actor attribution happens here, not in Process._resume, so
        # the wake-up path carries no hook: a process resumes inside a
        # task as one of its event's callbacks (only an interrupt() from
        # a non-process callback resumes one otherwise).
        for callback in event.callbacks:
            owner = getattr(callback, "__self__", None)
            if isinstance(owner, Process):
                self.on_actor(owner)

    def begin_task(self, event: "Event", ts_ns: float, label: str) -> None:
        """A new atomic task started: ``event`` popped at ``ts_ns``;
        everything until the next ``begin_task`` (its callbacks, and
        the process segments they resume) runs inside it."""

    def on_actor(self, process: "Process") -> None:
        """``process`` is resumed inside the current task (called in
        callback order)."""


_SanitizerT = typing.TypeVar("_SanitizerT", bound=KernelSanitizer)


def current_sanitizer() -> typing.Optional[KernelSanitizer]:
    """The context's ambient sanitizer (``None`` = uninstrumented)."""
    return current_scope().sanitizer


@contextlib.contextmanager
def use_sanitizer(
        sanitizer: _SanitizerT) -> typing.Iterator[_SanitizerT]:
    """Install ``sanitizer`` ambiently for the ``with`` body.

    Simulators constructed inside the body bind to it at construction
    (the same convention as :func:`repro.telemetry.tracer.use_tracer`).
    """
    with scoped(sanitizer=sanitizer):
        yield sanitizer


def current_tiebreak_seed() -> typing.Optional[int]:
    """Ambient tie-break shuffle seed (``None`` = FIFO drain)."""
    return current_scope().tiebreak_seed


@contextlib.contextmanager
def use_tiebreak(seed: int) -> typing.Iterator[int]:
    """Shuffle same-instant drains of simulators built in the body.

    Every :class:`~repro.sim.engine.Simulator` constructed inside the
    ``with`` block drains each same-instant wave in a seeded random
    permutation instead of FIFO schedule order.  Used by the shuffle
    oracle to certify (or refute) tie-break independence; production
    runs never set this.
    """
    with scoped(tiebreak_seed=seed):
        yield seed
