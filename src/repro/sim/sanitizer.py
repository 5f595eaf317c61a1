"""Kernel-side switches for the race sanitizer and the tie-break oracle.

Both ride in the ambient :class:`~repro.sim.observer.KernelScope`, so
harnesses wrap workloads without threading arguments through every
constructor, and neither imports the analysis package (which imports
:mod:`repro.sim`, so the dependency must point this way):

* :func:`use_sanitizer` attaches a kernel observer — in practice a
  :class:`repro.analysis.racecheck.RaceSanitizer`, which builds the
  happens-before graph — to the simulators built in its body.
* The **tie-break shuffle seed** (:func:`use_tiebreak`) makes
  :meth:`repro.sim.engine.Simulator.run` drain each same-instant wave
  in a seeded random permutation instead of FIFO order.  The shuffle
  oracle (:func:`repro.analysis.racecheck.certify_tiebreak_independence`)
  uses it to test whether a workload's final stats depend on the
  kernel's tie-break policy.
"""

from __future__ import annotations

import contextlib
import typing

from repro.sim.observer import KernelObserver, observing, scoped

_SanitizerT = typing.TypeVar("_SanitizerT", bound=KernelObserver)


@contextlib.contextmanager
def use_sanitizer(
        sanitizer: _SanitizerT) -> typing.Iterator[_SanitizerT]:
    """Attach ``sanitizer`` to the simulators built in the ``with`` body.

    Simulators bind to it at construction (the same convention as
    :func:`repro.telemetry.tracer.use_tracer`); nested uses attach
    every sanitizer in scope.
    """
    with observing(sanitizer):
        yield sanitizer


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
