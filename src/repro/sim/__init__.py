"""Discrete-event simulation kernel used by every DRAM-less subsystem.

The engine is a small, from-scratch, simpy-style coroutine kernel:

* :class:`~repro.sim.engine.Simulator` owns the event heap, the ready
  queue and the simulated clock (nanoseconds, floats).
* :class:`~repro.sim.event.Event` / :class:`~repro.sim.event.Timeout` are
  the primitive wait objects.
* :class:`~repro.sim.process.Process` drives a generator; processes
  ``yield`` events, timeouts, other processes, or condition combinators.
  A :class:`~repro.sim.process.Join` starts child processes in place
  and joins on their results.
* :class:`~repro.sim.resource.Resource`, :class:`~repro.sim.resource.Pool`,
  :class:`~repro.sim.resource.Store` and :class:`~repro.sim.resource.Channel`
  model contended hardware (ports, buses, buffers); a ``Pool`` serves
  holds whose length is known when they are claimed.
* :class:`~repro.sim.observer.KernelObserver` is the one seam every
  tool that watches the kernel goes through.
* :mod:`~repro.sim.stats` collects counters, time-weighted series and
  category breakdowns used to regenerate the paper's figures.
"""

from repro.sim.engine import Simulator
from repro.sim.event import AllOf, AnyOf, Event, Interrupt, Timeout
from repro.sim.hostprof import (
    HostProfilerHook,
    current_hostprof,
    use_hostprof,
)
from repro.sim.observer import KernelObserver, KernelScope
from repro.sim.process import Join, Process
from repro.sim.resource import Channel, Pool, Resource, Store
from repro.sim.sampling import current_sampling, use_sampling
from repro.sim.sanitizer import use_sanitizer, use_tiebreak
from repro.sim.stats import (
    QUANTILE_TARGETS,
    Breakdown,
    Counter,
    Histogram,
    LatencySketch,
    SketchLayout,
    TimeSeries,
)

__all__ = [
    "AllOf",
    "AnyOf",
    "Breakdown",
    "Channel",
    "Counter",
    "Event",
    "Histogram",
    "HostProfilerHook",
    "Interrupt",
    "Join",
    "KernelObserver",
    "KernelScope",
    "LatencySketch",
    "Pool",
    "Process",
    "QUANTILE_TARGETS",
    "Resource",
    "Simulator",
    "SketchLayout",
    "Store",
    "TimeSeries",
    "Timeout",
    "current_hostprof",
    "current_sampling",
    "use_hostprof",
    "use_sampling",
    "use_sanitizer",
    "use_tiebreak",
]
