"""The simulation kernel: clock, event queues, and run loop.

Ordering contract
-----------------
Events dispatch in ``(timestamp, schedule order)`` order: **events that
land on the same simulated instant drain in FIFO schedule order**, and
events scheduled *by a callback at the current instant* run after
everything already due at that instant.  The sharded parallel merge
and the result cache reproduce results byte-for-byte only because this
order is deterministic.  :mod:`repro.analysis.racecheck` certifies
which workloads are *independent* of it (and would therefore survive a
kernel that reorders within an instant); the seeded tie-break shuffle
(:func:`repro.sim.use_tiebreak`) is the mechanism it uses.

Two structures hold pending events:

* the **heap** holds events due *later* than the clock, keyed by
  ``(timestamp, tie-break counter)``; the counter increments per heap
  push, so equal timestamps pop in push order;
* the **ready queue** (a FIFO deque) holds events whose computed
  timestamp equals the clock.  Events scheduled at zero delay (plain
  resource grants, process bootstraps and completions, joins,
  ``AllOf``) skip the heap.

Draining the heap's entries due at ``now`` first, then the ready queue
in FIFO order, is exactly ``(timestamp, counter)`` order over one
combined heap.  A heap entry due at ``now`` was pushed while the clock
still read an earlier instant (had the clock read ``now``, its
timestamp would have routed it to the queue), so it precedes every
event queued at ``now``; and the clock moves to a heap timestamp only
once the queue is empty, so every queued event is due at the current
instant.  Routing compares the computed timestamp, not the delay: a
positive delay that rounds to ``now`` (``1e20 + 1.0 == 1e20``) queues
exactly where a heap push at ``now`` would have sorted.

Kernel observers (:mod:`repro.sim.observer`) see the run loop and one
hooked route, the schedule, which triggers and spawns then take too.
With no observer and no tie-break seed, ``run()`` takes the bare fast
drain and triggers and spawns append straight to the ready queue.
Unless the schedule is hooked, ``timeout()`` and a resource's hold
claims build their event and put it on its queue in one frame, exactly
where ``_schedule`` would.
"""

from __future__ import annotations

import collections
import functools
import heapq
import itertools
import math
import random
import typing

from repro.sim.event import AllOf, AnyOf, Event, Timeout
from repro.sim.observer import (
    CompositeObserver,
    KernelObserver,
    KernelScope,
    current_scope,
)
from repro.sim.process import Join, Process
from repro.telemetry.tracer import Tracer, current_tracer

GeneratorType = typing.Generator

#: One scheduled occurrence: ``(timestamp, tie-break counter, event)``.
HeapEntry = typing.Tuple[float, int, Event]


class Simulator:
    """Discrete-event simulator: a timestamp heap plus a ready queue.

    Simulated time is a float in **nanoseconds**.  All device models in
    this package express their latencies in nanoseconds so event
    timestamps compose without unit conversions.

    Typical usage::

        sim = Simulator()

        def worker():
            yield sim.timeout(10.0)
            return "done"

        proc = sim.process(worker())
        sim.run()
        assert sim.now == 10.0

    Observers (:mod:`repro.sim.observer`) attach at construction from
    ``scope`` — by default the ambient
    :class:`~repro.sim.observer.KernelScope` that ``use_sanitizer``,
    ``capture_trace``, ``use_tiebreak``, ``use_sampling`` and
    ``use_hostprof`` set.
    """

    def __init__(self, scope: KernelScope | None = None) -> None:
        #: Current simulated time in nanoseconds.  A plain attribute:
        #: the drains, step() and run(until=) write it; everything else
        #: only reads it.
        self.now = 0.0
        self._heap: typing.List[HeapEntry] = []
        # Events due at the current instant, in schedule order.
        self._ready: typing.Deque[Event] = collections.deque()
        self._counter = itertools.count()
        if scope is None:
            scope = current_scope()
        # The ambient tracer (use_tracer; the null tracer by default).
        # Device models emit their spans through it.
        self.tracer: Tracer = current_tracer()
        # The sampler stays reachable: device models track() into it.
        self.sampler: KernelObserver | None = (
            scope.sampling.create_sampler()
            if scope.sampling is not None else None)
        hostprof = (scope.hostprof.create_hostprof()
                    if scope.hostprof is not None else None)
        # Attach order is hook order: the scope's observers (a
        # sanitizer opens a task, a trace feed logs it), then the
        # sampler, and the profiler last, so its clock brackets the
        # others' work.
        observers: typing.List[KernelObserver] = [
            *scope.observers,
            *(observer for observer in (self.sampler, hostprof)
              if observer is not None)]
        # Tie-break shuffle: with a seed, run() permutes each
        # same-instant wave (the shuffle oracle's lever).
        self._shuffle: typing.Callable[[typing.Deque[Event]], None] | None = (
            random.Random(scope.tiebreak_seed).shuffle
            if scope.tiebreak_seed is not None else None)
        # None exactly when run() takes the bare fast drain.
        self._observer: CompositeObserver | None = (
            CompositeObserver(observers)
            if observers or self._shuffle is not None else None)
        # Zero-delay routes: triggers (Event.succeed/fail, resource
        # grants, process completions) and process bootstraps.  A zero
        # delay always lands on the current instant, so unobserved they
        # append straight to the ready queue, exactly where
        # _schedule(0.0, event) puts it.  The hooked schedule routes
        # are bound per instance, only when an observer overrides
        # on_schedule, and then carry these two as well.
        self._trigger: typing.Callable[[Event], None]
        self._spawn: typing.Callable[[Event], None]
        self._trigger = self._spawn = self._ready.append
        hooks = self._observer.hooks if self._observer else frozenset()
        # True when the schedule is hooked: the routes that build and
        # schedule an event in one frame (timeout(), resource holds)
        # then call the hooked _schedule instead.
        self._schedule_hooked = "on_schedule" in hooks
        if self._schedule_hooked:
            self._schedule = (  # type: ignore[method-assign]
                self._schedule_observed)
            self._schedule_at = (  # type: ignore[method-assign]
                self._schedule_at_observed)
            self._trigger = self._spawn = functools.partial(
                self._schedule_observed, 0.0)

    # ------------------------------------------------------------------
    # Factories
    # ------------------------------------------------------------------
    def event(self, name: str = "") -> Event:
        """Create an untriggered event owned by this simulator."""
        return Event(self, name)

    def timeout(self, delay: float, value: object = None) -> Timeout:
        """Create an event that fires ``delay`` ns from now."""
        if self._schedule_hooked or not delay >= 0:
            # The hooked schedule, or a delay the constructor rejects
            # (negative or NaN), with its own error.
            return Timeout(self, delay, value)
        # Timeout(self, delay, value) written out, scheduled as
        # _schedule would: one frame per device latency.
        timeout = Timeout.__new__(Timeout)
        timeout.sim = self
        timeout._name = ""
        timeout.callbacks = []
        timeout._value = value
        timeout._ok = True
        timeout._triggered = True
        timeout._processed = False
        timeout._delay = delay
        now = self.now
        when = now + delay
        if when == now:
            self._ready.append(timeout)
        else:
            heapq.heappush(self._heap, (when, next(self._counter), timeout))
        return timeout

    def deadline(self, at: float, value: object = None) -> Timeout:
        """Create an event that fires at exactly the absolute instant ``at``.

        The service layer schedules arrival injections and deadline
        sweeps against absolute simulated instants, and
        :class:`~repro.sim.resource.Pool` holds wake at the finish
        instant they reserved.  The event is keyed by ``at`` itself:
        ``now + (at - now)`` can land an ulp off ``at``.  Like a
        zero-delay timeout, ``deadline(now)`` queues behind the events
        already ready at this instant.  NaN and past instants are
        rejected here (mirroring :meth:`_schedule`'s delay validation)
        so a bad deadline fails at creation, not deep in the heap.
        """
        if math.isnan(at):
            raise ValueError("cannot schedule a deadline at NaN")
        if at < self.now:
            raise ValueError(
                f"cannot schedule a deadline at {at} ns: clock already "
                f"at {self.now} ns")
        return Timeout.at(self, at, value)

    def process(self, generator: GeneratorType, name: str = "") -> Process:
        """Register a generator as a runnable process."""
        return Process(self, generator, name)

    def fork_join(self, generators: typing.Iterable[GeneratorType]) -> Join:
        """Start each generator as a child process in this step; the
        returned event triggers with their return values, in order,
        once every child has finished (see :class:`Join`)."""
        return Join(self, generators)

    def all_of(self, events: typing.Sequence[Event]) -> AllOf:
        """Event that triggers once all ``events`` have triggered."""
        return AllOf(self, events)

    def any_of(self, events: typing.Sequence[Event]) -> AnyOf:
        """Event that triggers once any of ``events`` has triggered."""
        return AnyOf(self, events)

    # ------------------------------------------------------------------
    # Scheduling and the run loop
    # ------------------------------------------------------------------
    def _schedule(self, delay: float, event: Event) -> None:
        # Fast path: one comparison admits every valid delay (NaN
        # compares false), so the hot path pays no math.isnan call.
        # The clock is never NaN (it only takes values this check has
        # already admitted), so the timestamp needs no separate check.
        # Route on the timestamp, not the delay: a delay that rounds to
        # the current instant queues where a heap push would sort.
        if delay >= 0:
            now = self.now
            when = now + delay
            if when == now:
                self._ready.append(event)
            else:
                heapq.heappush(self._heap,
                               (when, next(self._counter), event))
            return
        if math.isnan(delay):
            raise ValueError(f"cannot schedule {event!r}: delay is NaN")
        raise ValueError(
            f"cannot schedule {event!r}: negative delay {delay}"
        )

    def _schedule_at(self, when: float, event: Event) -> None:
        # The absolute-instant route (deadline()): the same two queues
        # as _schedule, keyed by the instant itself.  Callers have
        # checked that `when` is not NaN and not in the past.
        if when == self.now:
            self._ready.append(event)
        else:
            heapq.heappush(self._heap, (when, next(self._counter), event))

    # The hooked routes, bound per instance in __init__ only when an
    # observer overrides on_schedule.  The hook fires only for an
    # admitted event.
    def _schedule_observed(self, delay: float, event: Event) -> None:
        Simulator._schedule(self, delay, event)
        self._observer.on_schedule(event)  # type: ignore[union-attr]

    def _schedule_at_observed(self, when: float, event: Event) -> None:
        Simulator._schedule_at(self, when, event)
        self._observer.on_schedule(event)  # type: ignore[union-attr]

    def peek(self) -> float:
        """Timestamp of the next scheduled event, or ``inf`` if none."""
        if self._ready:
            return self.now
        return self._heap[0][0] if self._heap else float("inf")

    def step(self) -> None:
        """Process exactly one event: the next in dispatch order.

        Heap entries due at the current instant go first (they were
        scheduled at an earlier one), then the ready queue; the clock
        moves to the heap's next timestamp only once both are spent.
        Observers see a step as a run of one dispatch.
        """
        heap = self._heap
        ready = self._ready
        when = self.now
        if heap and heap[0][0] == when or not ready:
            if not heap:
                raise RuntimeError("step() on an empty event heap")
            when, _, event = heapq.heappop(heap)
            self.now = when
        else:
            event = ready.popleft()
        observer = self._observer
        if observer is not None:
            observer.begin_run()
            observer.begin_dispatch(event, when)
        callbacks, event.callbacks = event.callbacks, []
        event._processed = True
        for callback in callbacks:
            callback(event)
        if observer is not None:
            observer.end_dispatch(event, callbacks)
            observer.end_run()

    def run(self, until: float | None = None) -> None:
        """Drain pending events, optionally stopping at time ``until``.

        With ``until`` set, the clock is advanced to exactly ``until``
        even if no event lands on that instant, matching the convention
        of mainstream DES kernels.

        **FIFO tie-break invariant.**  Within one simulated instant,
        events are processed in schedule order: the heap's entries due
        now, then the ready queue (see the module docstring for why
        that is exactly ``(timestamp, counter)`` order).  Everything
        downstream that promises byte-identical results
        (serial-vs-sharded merge, the result cache, determinism-marked
        tests) inherits this invariant, and
        ``tests/sim/test_ready_queue.py`` checks it against a single
        ``(timestamp, counter)`` reference heap.  The tie-break seed is
        the one sanctioned way to deviate from it, and exists precisely
        so :mod:`repro.analysis.racecheck` can measure which workloads
        depend on it.  With no observer and no seed, ``run()`` takes
        the bare fast drain below, otherwise :meth:`_run_observed`.
        """
        if until is not None and math.isnan(until):
            raise ValueError("cannot run until NaN")
        if until is not None and until < self.now:
            raise ValueError(
                f"cannot run until {until} ns: clock already at {self.now} ns"
            )
        if self._observer is not None:
            self._run_observed(until)
        else:
            # Fast drain: inline step() minus the observer, one instant
            # at a time, so the clock is written (and the stop
            # condition tested) once per instant rather than once per
            # event.  Each instant drains the heap's entries due now,
            # then the ready queue, which also takes whatever the
            # callbacks schedule at this instant.
            heap = self._heap
            ready = self._ready
            pop = heapq.heappop
            popleft = ready.popleft
            when = self.now
            while True:
                while heap and heap[0][0] == when:
                    event = pop(heap)[2]
                    callbacks, event.callbacks = event.callbacks, []
                    event._processed = True
                    for callback in callbacks:
                        callback(event)
                while ready:
                    event = popleft()
                    callbacks, event.callbacks = event.callbacks, []
                    event._processed = True
                    for callback in callbacks:
                        callback(event)
                if not heap:
                    break
                when = heap[0][0]
                if until is not None and when > until:
                    break
                self.now = when
        if until is not None:
            self.now = max(self.now, until)

    def _run_observed(self, until: float | None) -> None:
        """The observed drain: the fast drain's order, in waves.

        A wave is the heap's entries due now, then everything queued:
        what a single ``(timestamp, counter)`` heap holds due now.  The
        heap's entries join the front of the ready queue, which then
        holds exactly the wave; what its callbacks queue forms the next
        wave (the heap gains no entry due now).  In order, waves are
        the fast drain's order.  A tie-break seed shuffles each wave,
        and nothing runs before the task that scheduled it.  Only the
        hooks an observer overrides are called.
        """
        observer = self._observer
        assert observer is not None
        hooks = observer.hooks
        advance = observer.advance if "advance" in hooks else None
        begin = (observer.begin_dispatch if "begin_dispatch" in hooks
                 else None)
        end = observer.end_dispatch if "end_dispatch" in hooks else None
        on_batch = observer.on_batch if "on_batch" in hooks else None
        shuffle = self._shuffle
        heap = self._heap
        ready = self._ready
        pop = heapq.heappop
        popleft = ready.popleft
        observer.begin_run()
        when = self.now
        while ready or heap:
            if not ready and heap[0][0] != when:
                when = heap[0][0]
                if until is not None and when > until:
                    break
            # Windows close *before* the events at `when` run, so a
            # sample written at exactly a boundary instant belongs to
            # the window that starts there.
            if advance is not None:
                advance(when)
            self.now = when
            due = []
            while heap and heap[0][0] == when:
                due.append(pop(heap)[2])
            ready.extendleft(reversed(due))
            size = 0
            while ready:
                wave = len(ready)
                if shuffle is not None and wave > 1:
                    shuffle(ready)
                size += wave
                for _ in range(wave):
                    event = popleft()
                    if begin is not None:
                        begin(event, when)
                    callbacks, event.callbacks = event.callbacks, []
                    event._processed = True
                    for callback in callbacks:
                        callback(event)
                    if end is not None:
                        end(event, callbacks)
            if on_batch is not None:
                on_batch(size)
        observer.end_run()
        # Close windows up to the stop time so a run that idles out to
        # `until` still materializes its trailing windows.
        if advance is not None and until is not None and until > self.now:
            advance(until)
