"""Ambient sampling provider for the simulation engine.

This module is the engine-side half of windowed time-series telemetry
(the registry-facing half, :class:`repro.telemetry.timeseries.Sampler`,
lives in :mod:`repro.telemetry.timeseries`).  It imports nothing from
the telemetry layer, so the engine can import it without a cycle.

The contract mirrors the tracer/metrics ambients:

* a *provider* (any object with ``create_sampler()``) is installed with
  :func:`use_sampling`; :func:`current_sampling` reads it back.
* each :class:`~repro.sim.engine.Simulator` asks the provider for a
  fresh sampler at construction, attaches it as a kernel observer and
  exposes it as ``sim.sampler`` for the device models to ``track()``
  into.  A provider may return ``None`` (e.g. when metrics are
  disabled), in which case nothing is attached.
* the engine calls the sampler's
  :meth:`~repro.sim.observer.KernelObserver.advance` once per instant,
  *before* dispatching that instant's events, and once more with the
  final ``until`` time, so it can close every simulated-time window
  boundary it crossed.
"""
from __future__ import annotations

import contextlib
import typing

from repro.sim.observer import KernelObserver, current_scope, scoped


class SamplingProvider(typing.Protocol):
    """Anything that can mint per-simulator samplers."""

    def create_sampler(self) -> typing.Optional[KernelObserver]:
        """Return a fresh sampler for one simulator, or ``None`` to opt
        out."""
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
    sampler; ``None`` restores the disabled default.
    """
    with scoped(sampling=provider):
        yield provider
