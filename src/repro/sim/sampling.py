"""Ambient sampling hook for the simulation engine.

This module is the engine-side half of windowed time-series telemetry
(the registry-facing half lives in :mod:`repro.telemetry.timeseries`).
Like :mod:`repro.sim.sanitizer`, it imports nothing from the telemetry
layer, so the engine can import it without a cycle.

The contract mirrors the tracer/metrics ambients:

* a *provider* (any object with ``create_sampler()``) is installed with
  :func:`use_sampling`; :func:`current_sampling` reads it back.
* each :class:`~repro.sim.engine.Simulator` asks the provider for a
  fresh :class:`SamplerHook` at construction, attaches it as a kernel
  observer and exposes it as ``sim.sampler`` for the device models to
  ``track()`` into.  A provider may return ``None`` (e.g. when metrics
  are disabled), in which case nothing is attached.
* the engine calls :meth:`SamplerHook.advance` once per instant,
  *before* dispatching that instant's events, and once more with the
  final ``until`` time, so the hook can close every simulated-time
  window boundary it crossed.
"""
from __future__ import annotations

import contextlib
import typing

from repro.sim.observer import KernelObserver, current_scope, scoped


class SamplerHook(KernelObserver):
    """Base of engine-driven samplers.

    Subclasses override :meth:`advance`; the base implementation is a
    no-op so a bare hook is harmless.
    """

    def advance(self, now: float) -> None:
        """Simulated time has reached ``now``; close crossed windows.

        Called before the events at ``now`` run, so samples written at
        exactly a window boundary land in the *next* window.
        """


class SamplingProvider(typing.Protocol):
    """Anything that can mint per-simulator sampler hooks."""

    def create_sampler(self) -> typing.Optional[SamplerHook]:
        """Return a fresh hook for one simulator, or ``None`` to opt out."""
        ...


def current_sampling() -> typing.Optional[SamplingProvider]:
    """The ambient sampling provider, or ``None`` when sampling is off."""
    return current_scope().sampling


@contextlib.contextmanager
def use_sampling(
    provider: typing.Optional[SamplingProvider],
) -> typing.Iterator[typing.Optional[SamplingProvider]]:
    """Install ``provider`` as the ambient sampling provider.

    Simulators constructed inside the ``with`` block ask it for a
    sampler hook; ``None`` restores the disabled default.
    """
    with scoped(sampling=provider):
        yield provider
