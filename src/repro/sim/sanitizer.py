"""Kernel-side hooks for the race sanitizer and the tie-break oracle.

This module is the *engine half* of :mod:`repro.analysis.racecheck`:
it defines the hook interface the kernel calls into and the ambient
installation slots, with no dependency on the analysis package (the
analysis package imports :mod:`repro.sim`, so the dependency must point
this way to avoid a cycle).

Two debug facilities share this module:

* :class:`KernelSanitizer` — the observation interface.  The kernel,
  events, processes and resources call these hooks *only when a
  sanitizer is installed*.  Scheduling, triggers and resource claims
  (``Simulator._schedule``/``_trigger``/``_spawn``,
  ``Resource.request``/``release``) swap their hooked variants in at
  construction time, so an uninstrumented run pays nothing there; the
  one remaining site, ``Process._resume``, is guarded by an
  ``is not None`` test on the simulator's resolved sanitizer (one
  attribute load per process wake-up).
* The **tie-break shuffle seed** — an ambient knob that makes
  :meth:`repro.sim.engine.Simulator.run` drain same-timestamp events in
  a seeded random permutation instead of FIFO order.  The shuffle
  oracle (:func:`repro.analysis.racecheck.certify_tiebreak_independence`)
  uses it to test whether a workload's final stats depend on the
  kernel's tie-break policy.

Both slots are :class:`contextvars.ContextVar`\\ s, mirroring the
ambient tracer: simulators resolve them at construction, so harnesses
wrap workloads without threading arguments through every constructor,
and nested/concurrent uses never clobber each other.
"""

from __future__ import annotations

import contextlib
import contextvars
import typing

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.event import Event
    from repro.sim.process import Process
    from repro.sim.resource import Request, Resource


class KernelSanitizer:
    """Observation interface for kernel causality and task boundaries.

    All hooks are no-ops; :class:`repro.analysis.racecheck.RaceSanitizer`
    overrides them to build the happens-before graph.  Hook timing
    contract (what the kernel guarantees):

    * :meth:`begin_task` — an event was taken off the heap or the ready
      queue; everything until the next ``begin_task`` (its callbacks,
      including process segments they resume) executes inside this
      task.
    * :meth:`on_schedule` — an event was scheduled from the currently
      running task (or from outside ``run()``, the root task).
    * :meth:`on_trigger` — an event is about to be scheduled as
      triggered (:meth:`Event.succeed` / :meth:`Event.fail`, a resource
      grant or a process completion); fires *before* ``on_schedule``
      for the same event so the edge can be labeled.
    * :meth:`on_acquire` / :meth:`on_grant` / :meth:`on_release` —
      :class:`~repro.sim.resource.Resource` slot lifecycle; ``on_grant``
      fires for queue hand-offs (inside the releasing task) just before
      the grant event is triggered.
    * :meth:`on_actor` — a :class:`~repro.sim.process.Process` is being
      stepped inside the current task (actor attribution for reports).
    """

    def begin_task(self, event: "Event", ts_ns: float, label: str) -> None:
        """A new atomic task started: ``event`` popped at ``ts_ns``."""

    def on_schedule(self, event: "Event") -> None:
        """``event`` was scheduled by the currently running task."""

    def on_trigger(self, event: "Event", ok: bool) -> None:
        """``event`` is being triggered (succeed/fail, a resource grant
        or a process completion) right now."""

    def on_actor(self, process: "Process") -> None:
        """``process`` is executing inside the current task."""

    def on_acquire(self, resource: "Resource", request: "Request") -> None:
        """``request`` was granted a free ``resource`` slot immediately."""

    def on_grant(self, resource: "Resource", request: "Request") -> None:
        """A queued ``request`` is being handed a released slot."""

    def on_release(self, resource: "Resource", request: "Request") -> None:
        """``request`` returned its ``resource`` slot."""


# ----------------------------------------------------------------------
# Ambient installation slots
# ----------------------------------------------------------------------
_SANITIZER: contextvars.ContextVar[typing.Optional[KernelSanitizer]] = (
    contextvars.ContextVar("repro_sim_sanitizer", default=None))

_TIEBREAK_SEED: contextvars.ContextVar[typing.Optional[int]] = (
    contextvars.ContextVar("repro_sim_tiebreak_seed", default=None))

_SanitizerT = typing.TypeVar("_SanitizerT", bound=KernelSanitizer)


def current_sanitizer() -> typing.Optional[KernelSanitizer]:
    """The context's ambient sanitizer (``None`` = uninstrumented)."""
    return _SANITIZER.get()


@contextlib.contextmanager
def use_sanitizer(
        sanitizer: _SanitizerT) -> typing.Iterator[_SanitizerT]:
    """Install ``sanitizer`` ambiently for the ``with`` body.

    Simulators constructed inside the body bind to it at construction
    (the same convention as :func:`repro.telemetry.tracer.use_tracer`).
    Token-based restoration keeps nested uses independent.
    """
    token = _SANITIZER.set(sanitizer)
    try:
        yield sanitizer
    finally:
        _SANITIZER.reset(token)


def current_tiebreak_seed() -> typing.Optional[int]:
    """Ambient tie-break shuffle seed (``None`` = FIFO drain)."""
    return _TIEBREAK_SEED.get()


@contextlib.contextmanager
def use_tiebreak(seed: int) -> typing.Iterator[int]:
    """Shuffle same-timestamp drains of simulators built in the body.

    Every :class:`~repro.sim.engine.Simulator` constructed inside the
    ``with`` block drains equal-timestamp event batches in a seeded
    random permutation instead of FIFO schedule order.  Used by the
    shuffle oracle to certify (or refute) tie-break independence;
    production runs never set this.
    """
    token = _TIEBREAK_SEED.set(seed)
    try:
        yield seed
    finally:
        _TIEBREAK_SEED.reset(token)
