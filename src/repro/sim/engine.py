"""The simulation kernel: clock, event queues, and run loop.

Ordering contract
-----------------
Events dispatch in ``(timestamp, schedule order)`` order: **events that
land on the same simulated instant drain in FIFO schedule order**, and
events scheduled *by a callback at the current instant* run after
everything already due at that instant.  The sharded parallel merge,
the result cache and the compiled backend reproduce results
byte-for-byte only because this order is deterministic.
:mod:`repro.analysis.racecheck` certifies which workloads are
*independent* of it (and would therefore survive a kernel that
reorders within an instant); the seeded ``tiebreak_seed`` debug mode
below is the mechanism it uses.

Two structures hold pending events:

* the **heap** holds events due *later* than the clock, keyed by
  ``(timestamp, tie-break counter)``; the counter increments per heap
  push, so equal timestamps pop in push order;
* the **ready queue** (a FIFO deque) holds events whose computed
  timestamp equals the clock.  Most events are scheduled at zero delay
  (resource grants, process bootstraps and completions, ``AllOf``), and
  these skip the heap.

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
"""

from __future__ import annotations

import collections
import heapq
import itertools
import math
import random
import typing

from repro.sim.event import AllOf, AnyOf, Event, Timeout
from repro.sim.hostprof import HostProfilerHook, current_hostprof
from repro.sim.process import Process
from repro.sim.sampling import SamplerHook, current_sampling
from repro.sim.sanitizer import (
    KernelSanitizer,
    current_sanitizer,
    current_tiebreak_seed,
)
from repro.telemetry.tracer import Tracer, combine, current_tracer

GeneratorType = typing.Generator

#: One scheduled occurrence: ``(timestamp, tie-break counter, event)``.
HeapEntry = typing.Tuple[float, int, Event]

#: One entry of a captured event trace: ``(timestamp, event label)``.
TraceEntry = typing.Tuple[float, str]


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
    """

    def __init__(self, tracer: Tracer | None = None,
                 sanitizer: KernelSanitizer | None = None,
                 tiebreak_seed: int | None = None,
                 sampler: SamplerHook | None = None,
                 hostprof: HostProfilerHook | None = None) -> None:
        self._now = 0.0
        self._heap: typing.List[HeapEntry] = []
        # Events due at the current instant, in schedule order.
        self._ready: typing.Deque[Event] = collections.deque()
        self._counter = itertools.count()
        # Race-sanitizer hooks (repro.analysis.racecheck).  Explicit
        # argument wins over the ambient slot; with neither, every
        # guarded hook site sees None and the scheduling fast path is
        # left untouched (no per-schedule guard at all — the sanitized
        # variant is swapped in as an instance attribute only when a
        # sanitizer is installed).
        self._sanitizer: KernelSanitizer | None = (
            sanitizer if sanitizer is not None else current_sanitizer())
        self._sanitizing = self._sanitizer is not None
        if self._sanitizing:
            self._schedule = (  # type: ignore[method-assign]
                self._schedule_sanitized)
        # Tie-break shuffle debug mode: with a seed, run() drains each
        # same-timestamp batch in a seeded random permutation instead
        # of FIFO order (the shuffle oracle's lever).  None = FIFO.
        seed = (tiebreak_seed if tiebreak_seed is not None
                else current_tiebreak_seed())
        self._tiebreak_rng = (random.Random(seed) if seed is not None
                              else None)
        # Windowed time-series sampling (repro.telemetry.timeseries).
        # Explicit hook wins; otherwise the ambient provider (if any)
        # mints one per simulator.  Sampled runs drain through the
        # per-event branch of run() — the batched fast drain stays
        # untouched, so a disabled sampler costs nothing.
        if sampler is None:
            provider = current_sampling()
            if provider is not None:
                sampler = provider.create_sampler()
        self.sampler: SamplerHook | None = sampler
        self._sampling = sampler is not None
        # Host wall-clock profiling (repro.telemetry.hostprof).  Explicit
        # hook wins; otherwise the ambient provider (if any) supplies
        # one.  Profiled runs drain through _run_profiled — the run()
        # mode choice pays one extra elif, and the batched fast drain
        # stays untouched, so a disabled profiler costs nothing per
        # event.  The schedule-census variant of _schedule is swapped in
        # as an instance attribute (same trick as the sanitizer) so the
        # uninstrumented scheduling fast path keeps its guard-free body.
        if hostprof is None:
            hostprof_provider = current_hostprof()
            if hostprof_provider is not None:
                hostprof = hostprof_provider.create_hostprof()
        self.hostprof: HostProfilerHook | None = hostprof
        self._hostprofiling = hostprof is not None
        if self._hostprofiling:
            self._schedule = (  # type: ignore[method-assign]
                self._schedule_profiled_sanitized if self._sanitizing
                else self._schedule_profiled)
        # Zero-delay routes: triggers (Event.succeed/fail, resource
        # grants, process completions) and process bootstraps.  A zero
        # delay always lands on the current instant, so unobserved they
        # append straight to the ready queue, exactly where
        # _schedule(0.0, event) puts it; with either hook bound they
        # take the hooked route through _schedule instead.
        self._trigger: typing.Callable[[Event], None]
        self._spawn: typing.Callable[[Event], None]
        if self._sanitizing or self._hostprofiling:
            self._trigger = self._trigger_observed
            self._spawn = self._spawn_observed
            self._schedule_at = (  # type: ignore[method-assign]
                self._schedule_at_observed)
        else:
            self._trigger = self._spawn = self._ready.append
        # Explicit tracer and the ambient one (use_tracer) both observe
        # this kernel; with neither active this collapses to the null
        # tracer and step() pays one attribute load.  Binding happens at
        # construction so harnesses (determinism capture, experiment
        # tracing) observe every simulator built inside their scope.
        self.tracer: Tracer = combine(tracer, current_tracer())
        # The tracer is bound for the simulator's lifetime, so run()
        # branches once on this flag and unreached paths pay nothing:
        # untraced drains skip label construction and span bookkeeping
        # entirely.
        self._tracing = self.tracer.enabled
        # Kernel-event count for traced runs; counted only inside the
        # tracer.enabled branch of step() so untraced runs pay nothing.
        self.events_processed = 0

    @property
    def now(self) -> float:
        """Current simulated time in nanoseconds."""
        return self._now

    # ------------------------------------------------------------------
    # Factories
    # ------------------------------------------------------------------
    def event(self, name: str = "") -> Event:
        """Create an untriggered event owned by this simulator."""
        return Event(self, name)

    def timeout(self, delay: float, value: object = None) -> Timeout:
        """Create an event that fires ``delay`` ns from now."""
        return Timeout(self, delay, value)

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
        if at < self._now:
            raise ValueError(
                f"cannot schedule a deadline at {at} ns: clock already "
                f"at {self._now} ns")
        return Timeout.at(self, at, value)

    def process(self, generator: GeneratorType, name: str = "") -> Process:
        """Register a generator as a runnable process."""
        return Process(self, generator, name)

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
            now = self._now
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
        if when == self._now:
            self._ready.append(event)
        else:
            heapq.heappush(self._heap, (when, next(self._counter), event))

    def _schedule_at_observed(self, when: float, event: Event) -> None:
        # Bound as _schedule_at when a sanitizer or a host profiler is
        # bound, with the hooks in _schedule_profiled_sanitized's order.
        Simulator._schedule_at(self, when, event)
        sanitizer = self._sanitizer
        if sanitizer is not None:
            sanitizer.on_schedule(event)
        hook = self.hostprof
        if hook is not None:
            hook.on_schedule(event)

    def _schedule_sanitized(self, delay: float, event: Event) -> None:
        # Installed over _schedule (instance attribute) only when a
        # sanitizer is bound, so the uninstrumented fast path keeps its
        # guard-free body.  The happens-before edge (scheduling task ->
        # event) is recorded only for successfully admitted delays.
        Simulator._schedule(self, delay, event)
        sanitizer = self._sanitizer
        if sanitizer is not None:
            sanitizer.on_schedule(event)

    def _schedule_profiled(self, delay: float, event: Event) -> None:
        # Swapped in over _schedule only when a host profiler is bound:
        # the schedule census (schedules per event kind) has to see the
        # `_schedule` fast path too, and a permanent guard there would
        # tax every uninstrumented run.
        Simulator._schedule(self, delay, event)
        hook = self.hostprof
        if hook is not None:
            hook.on_schedule(event)

    def _schedule_profiled_sanitized(self, delay: float,
                                     event: Event) -> None:
        # Profiler + sanitizer both bound: keep the sanitizer's hook
        # order (admit, then happens-before edge) and append the census.
        Simulator._schedule(self, delay, event)
        sanitizer = self._sanitizer
        if sanitizer is not None:
            sanitizer.on_schedule(event)
        hook = self.hostprof
        if hook is not None:
            hook.on_schedule(event)

    def _trigger_observed(self, event: Event) -> None:
        # Bound as _trigger when a sanitizer or a host profiler is
        # bound.  The sanitizer labels the upcoming schedule edge as a
        # trigger (succeed -> wait causality) before the hooked
        # _schedule records it; the profiler's schedule census counts
        # it there.
        sanitizer = self._sanitizer
        if sanitizer is not None:
            sanitizer.on_trigger(event, event._ok)
        self._schedule(0.0, event)

    def _spawn_observed(self, event: Event) -> None:
        # Bound as _spawn when a sanitizer or a host profiler is bound:
        # a process bootstrap is an ordinary zero-delay schedule, so
        # the hooks see it as one.
        self._schedule(0.0, event)

    def peek(self) -> float:
        """Timestamp of the next scheduled event, or ``inf`` if none."""
        if self._ready:
            return self._now
        return self._heap[0][0] if self._heap else float("inf")

    def fast_forward(self, now: float) -> None:
        """Advance the clock to ``now`` without processing any events.

        The compiled backend (:mod:`repro.sim.compiled`) computes a
        request batch's completion times arithmetically and then moves
        the clock here, so interleaved interpreted phases (a later
        ``run()``) resume from the same instant they would have reached
        event by event.  Refuses to skip pending events or rewind:
        both would silently desynchronize the two backends.
        """
        pending = len(self._heap) + len(self._ready)
        if pending:
            raise RuntimeError(
                f"fast_forward({now}) with {pending} events "
                "still pending — drain them with run() first")
        if math.isnan(now) or now < self._now:
            raise ValueError(
                f"cannot fast-forward to {now} ns: clock already at "
                f"{self._now} ns")
        self._now = now

    def _event_label(self, event: Event) -> str:
        """Human-readable label for a processed event.

        Named events keep their name.  Anonymous events (timeouts,
        resource grants) are labeled ``ClassName:owner`` where the owner
        is the process waiting on them — without this, traces degrade
        to a wall of bare ``Timeout``/``Event`` entries.
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

    def step(self) -> None:
        """Process exactly one event: the next in dispatch order.

        Heap entries due at the current instant go first (they were
        scheduled at an earlier one), then the ready queue; the clock
        moves to the heap's next timestamp only once both are spent.
        """
        heap = self._heap
        ready = self._ready
        when = self._now
        if heap and heap[0][0] == when or not ready:
            if not heap:
                raise RuntimeError("step() on an empty event heap")
            when, _, event = heapq.heappop(heap)
            self._now = when
        else:
            event = ready.popleft()
        sanitizer = self._sanitizer
        if sanitizer is not None:
            sanitizer.begin_task(event, when, self._event_label(event))
        tracer = self.tracer
        if tracer.enabled:
            self.events_processed += 1
            tracer.kernel_event(when, self._event_label(event))
        callbacks, event.callbacks = event.callbacks, []
        event._processed = True
        for callback in callbacks:
            callback(event)

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
        tests, the compiled backend) inherits this invariant, and
        ``tests/sim/test_ready_queue.py`` checks it against a single
        ``(timestamp, counter)`` reference heap.  ``tiebreak_seed`` is
        the one sanctioned way to deviate from it, and exists precisely
        so :mod:`repro.analysis.racecheck` can measure which workloads
        depend on it.
        """
        if until is not None and math.isnan(until):
            raise ValueError("cannot run until NaN")
        if until is not None and until < self._now:
            raise ValueError(
                f"cannot run until {until} ns: clock already at {self._now} ns"
            )
        sampler = self.sampler
        if self._tiebreak_rng is not None:
            # The shuffle oracle's debug drain wins over profiling:
            # host timing under a randomized dispatch order is not
            # attributable to anything reproducible.
            self._run_shuffled(until)
        elif self._hostprofiling:
            self._run_profiled(until)
        elif self._tracing or self._sanitizing or self._sampling:
            while self._ready or self._heap:
                when = self.peek()
                if until is not None and when > until:
                    break
                # Windows close *before* the events at `when` run, so a
                # sample written at exactly a boundary instant belongs
                # to the window that starts there.
                if sampler is not None:
                    sampler.advance(when)
                self.step()
        else:
            # Untraced fast drain: inline step() minus the tracer
            # branch, one instant at a time, so the clock is written
            # (and the stop condition tested) once per instant rather
            # than once per event.  Each instant drains the heap's
            # entries due now, then the ready queue, which also takes
            # whatever the callbacks schedule at this instant.
            heap = self._heap
            ready = self._ready
            pop = heapq.heappop
            popleft = ready.popleft
            when = self._now
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
                self._now = when
        if until is not None:
            # Close windows up to the stop time so a run that idles out
            # to `until` still materializes its trailing windows.
            if sampler is not None and until > self._now:
                sampler.advance(until)
            self._now = max(self._now, until)

    def _run_shuffled(self, until: float | None) -> None:
        """Debug drain: seeded permutation of each same-instant batch.

        Collects every event already queued for the current instant,
        shuffles the batch with the simulator's tie-break RNG, and
        processes it.  Events a callback schedules *at the same
        instant* form the next batch (shuffled separately), so
        causality is preserved: nothing runs before the task that
        scheduled it.  Each distinct seed explores one alternative
        tie-break order; FIFO is the identity the shuffle oracle diffs
        against.
        """
        rng = self._tiebreak_rng
        assert rng is not None
        heap = self._heap
        ready = self._ready
        tracer = self.tracer if self._tracing else None
        sanitizer = self._sanitizer
        sampler = self.sampler
        batch: typing.List[Event] = []
        when = self._now
        while ready or heap:
            if not ready and heap[0][0] != when:
                when = heap[0][0]
                if until is not None and when > until:
                    break
            if sampler is not None:
                sampler.advance(when)
            self._now = when
            # One wave: the heap's entries due now, then everything
            # queued so far — the set (and the pre-shuffle order) a
            # single (timestamp, counter) heap would hold due now.
            # After the first wave of an instant the heap holds none,
            # so each later wave is one generation of queued events.
            del batch[:]
            while heap and heap[0][0] == when:
                batch.append(heapq.heappop(heap)[2])
            batch.extend(ready)
            ready.clear()
            if len(batch) > 1:
                rng.shuffle(batch)
            for event in batch:
                if sanitizer is not None:
                    sanitizer.begin_task(event, when,
                                         self._event_label(event))
                if tracer is not None:
                    self.events_processed += 1
                    tracer.kernel_event(when, self._event_label(event))
                callbacks, event.callbacks = event.callbacks, []
                event._processed = True
                for callback in callbacks:
                    callback(event)

    def _run_profiled(self, until: float | None) -> None:
        """Host-profiled drain: batched like the fast drain, timed per
        dispatch.

        Composes with every other hook (tracer, sanitizer, sampler), so
        a profiled run observes exactly what an unprofiled run would.
        The hook's clock is read once before and once after each
        event's callbacks; together with :meth:`HostProfilerHook.
        begin_run`/``end_run`` the segments tile the drain's wall clock
        — the gap between one dispatch's end and the next one's start
        is the kernel's own queue work, so a collector that accounts the
        gaps attributes ~100% of measured ``run()`` time.
        """
        hook = self.hostprof
        assert hook is not None
        clock = hook.clock
        heap = self._heap
        ready = self._ready
        pop = heapq.heappop
        tracer = self.tracer if self._tracing else None
        sanitizer = self._sanitizer
        sampler = self.sampler
        hook.begin_run(clock())
        when = self._now
        while ready or heap:
            if not ready and heap[0][0] != when:
                when = heap[0][0]
                if until is not None and when > until:
                    break
            if sampler is not None:
                sampler.advance(when)
            self._now = when
            # One batch is everything dispatched at this instant: the
            # heap's entries due now, then the ready queue until empty.
            batch_size = 0
            while True:
                if heap and heap[0][0] == when:
                    event = pop(heap)[2]
                elif ready:
                    event = ready.popleft()
                else:
                    break
                batch_size += 1
                if sanitizer is not None:
                    sanitizer.begin_task(event, when,
                                         self._event_label(event))
                if tracer is not None:
                    self.events_processed += 1
                    tracer.kernel_event(when, self._event_label(event))
                callbacks, event.callbacks = event.callbacks, []
                event._processed = True
                start = clock()
                for callback in callbacks:
                    callback(event)
                hook.on_dispatch(event, callbacks, start, clock())
            hook.on_batch(batch_size)
        hook.end_run(clock())
