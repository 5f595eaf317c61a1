"""Disabled-layer overhead guard.

Optional layers thread hooks through the kernel and the request path:
fault plans, the kernel observers (race sanitizer, windowed sampler,
host profiler, tracer) and the service front end.  Switched off — every
production run — each must cost (almost) nothing.  Every case pairs the
stock program with a *seed replica*: the same program with that layer's
hooks removed, swapped in by monkeypatching (or, for fault plans, the
same drive with no plan at all).  The observers share one seam
(:mod:`repro.sim.observer`), so one case, the sanitizer's, covers
them: switched off, an observer costs only ``run()``'s choice between
its two drains, and the case's replicas pin the per-instance routes
(triggers, bootstraps) hook-free, and with them the resource claims
and the process wake-up, which equal stock.
``tests/sim/test_hot_path.py`` checks that a profiled run dispatches
the same schedule as an unprofiled one.

Per case, one identity check and one timing check:

* the stock run, the seed replica and (where the layer has one) a run
  with the layer switched on end at the same simulated instant — the
  hooks observe, never perturb;
* stock and seed drives — construction included, so the ambient
  lookups and fault-plan setup in the constructors count — are timed
  interleaved (alternating, so host drift hits both equally, and
  alternating which side goes first) after a full collection, each
  side scores its minimum over N repetitions, and a failing first pass
  gets one retry with more repetitions.  The ratio must stay within
  the case's bound.
"""

from __future__ import annotations

import dataclasses
import gc
import heapq
import time
import types
import typing

import pytest

from repro.analysis.racecheck import sanitize
from repro.controller import MemoryRequest, Op, PramSubsystem
from repro.controller.request import RequestStatus
from repro.faults.plan import FaultConfig
from repro.pram.errors import PramError
from repro.sim import LatencySketch, Simulator
from repro.sim.event import Event
from repro.sim.process import Process
from repro.sim.resource import Request, Resource
from repro.sim.sampling import use_sampling
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.timeseries import Sampler

#: Default acceptance bound: stock runtime / seed-replica runtime.
MAX_OVERHEAD = 1.05

#: Simulated requests per timing sample.
REQUESTS = 192

#: The enum members ``PramSubsystem.submit`` binds once.
_READ = Op.READ
_WRITE = Op.WRITE
_OK = RequestStatus.OK


# ----------------------------------------------------------------------
# Seed replicas: kernel and request-path methods with the hooks removed
# ----------------------------------------------------------------------
def _bare_run(self, until=None):
    """``Simulator.run`` without the drain choice: the fast drain only."""
    assert until is None
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
        when = self.now = heap[0][0]


def _seed_succeed(self, value=None):
    if self._triggered:
        raise RuntimeError(f"{self!r} has already been triggered")
    self._ok = True
    self._value = value
    self._triggered = True
    self.sim._trigger(self)
    return self


def _seed_fail(self, exception):
    if self._triggered:
        raise RuntimeError(f"{self!r} has already been triggered")
    if not isinstance(exception, BaseException):
        raise TypeError("fail() requires an exception instance")
    self._ok = False
    self._value = exception
    self._triggered = True
    self.sim._trigger(self)
    return self


def _seed_process_init(self, sim, generator, name="", *, join=None):
    if type(generator) is not types.GeneratorType and (
            not hasattr(generator, "send")
            or not hasattr(generator, "throw")):
        raise TypeError(
            f"Process requires a generator, got {type(generator).__name__}")
    self.sim = sim
    self._name = name or getattr(generator, "__name__", "process")
    self.callbacks = []
    self._value = None
    self._ok = True
    self._triggered = False
    self._processed = False
    self._generator = generator
    self._waiting_on = None
    if join is not None:
        self._finish = join._child_done
        return
    self._finish = sim._trigger
    bootstrap = Event.__new__(Event)
    bootstrap.sim = sim
    bootstrap._name = self._bootstrap_label
    bootstrap.callbacks = [self._resume]
    bootstrap._value = None
    bootstrap._ok = True
    bootstrap._triggered = True
    bootstrap._processed = False
    sim._spawn(bootstrap)


def _seed_process_resume(self, event):
    """``Process._resume`` as it stands: equal to stock, it pins the
    wake-up path hook-free."""
    self._waiting_on = None
    sim = self.sim
    try:
        if event._ok:
            target = self._generator.send(event._value)
        else:
            target = self._generator.throw(event._value)
    except StopIteration as stop:
        if self._triggered:
            raise RuntimeError(f"{self!r} has already been triggered")
        self._value = stop.value
        self._triggered = True
        self._finish(self)
        return
    except BaseException as exc:
        if self._triggered:
            raise RuntimeError(f"{self!r} has already been triggered")
        self._ok = False
        self._value = exc
        self._triggered = True
        self._finish(self)
        return
    if not isinstance(target, Event):
        self._throw(TypeError(
            f"process {self.name!r} yielded {target!r}; "
            "processes may only yield Event instances"))
        return
    if target._processed:
        passthrough = Event(sim)
        passthrough._name = self._passthrough_label
        passthrough._ok = target._ok
        passthrough._value = target._value
        passthrough._triggered = True
        passthrough.callbacks.append(self._resume)
        sim._schedule(0.0, passthrough)
        self._waiting_on = passthrough
    else:
        target.callbacks.append(self._resume)
        self._waiting_on = target


def _seed_request(self, hold=None):
    """``Resource.request`` as it stands: equal to stock, it pins the
    claim hook-free."""
    if hold is not None and not hold >= 0:
        raise ValueError(
            f"{self.name}: hold length must be >= 0, got {hold}")
    sim = self.sim
    req = Request.__new__(Request)
    req.sim = sim
    req._name = ""
    req.callbacks = []
    req._value = None
    req._ok = True
    req._processed = False
    req.resource = self
    req.hold = hold
    req.start = None
    if self._count < self.capacity:
        self._count += 1
        req.held = True
        req._triggered = True
        if hold is None:
            sim._trigger(req)
        elif sim._schedule_hooked:
            req.start = sim.now
            sim._schedule(hold, req)
        else:
            req.start = now = sim.now
            when = now + hold
            if when == now:
                sim._ready.append(req)
            else:
                heapq.heappush(sim._heap,
                               (when, next(sim._counter), req))
    else:
        req.held = False
        req._triggered = False
        self._queue.append(req)
    return req


def _seed_release(self, request):
    """``Resource.release`` as it stands: equal to stock, it pins the
    release and hand-off hook-free."""
    try:
        held = request.held and request.resource is self
    except AttributeError:
        held = False
    queue = self._queue
    if held:
        request.held = False
        self._count -= 1
    elif request in queue:
        queue.remove(request)
        return
    else:
        raise ValueError(f"{request!r} does not hold {self.name}")
    sim = self.sim
    while queue and self._count < self.capacity:
        waiter = queue.popleft()
        self._count += 1
        waiter.held = True
        if waiter._triggered:
            raise RuntimeError(f"{waiter!r} has already been triggered")
        waiter._triggered = True
        hold = waiter.hold
        if hold is None:
            sim._trigger(waiter)
        elif sim._schedule_hooked:
            waiter.start = sim.now
            sim._schedule(hold, waiter)
        else:
            waiter.start = now = sim.now
            when = now + hold
            if when == now:
                sim._ready.append(waiter)
            else:
                heapq.heappush(sim._heap,
                               (when, next(sim._counter), waiter))


def _seed_sketch_add(self, value):
    """A latency sketch that records nothing."""


def _seed_submit(self, request):
    """``PramSubsystem.submit`` before the service layer.

    The in-flight counter moves only under ``_metrics_on`` and the
    ``fault_permanent`` flag is never set; the rest is the current
    body.
    """
    request.submit_time = self.sim.now
    if self._metrics_on:
        self._inflight += 1
        self.queue_depth.record(self.sim.now, float(self._inflight))
    if self.firmware is not None:
        yield self.sim.process(self.firmware.admit())
    failure = None
    results: typing.List[typing.Any] = []
    address, size = request.address, request.size
    row_count = self.address_map.channel_row_count
    try:
        results = yield self.sim.fork_join([
            channel.execute_chunks(request) for channel in self.channels
            if row_count(address, size, channel.channel_id)])
    except PramError as exc:
        failure = exc
    request.complete_time = self.sim.now
    if failure is not None:
        request.degrade(RequestStatus.FAILED,
                        f"{type(failure).__name__}: {failure}")
    op = request.op
    if op is _READ:
        self._read_sketch.add(request.latency)
    elif op is _WRITE:
        self._write_sketch.add(request.latency)
    if self._metrics_on:
        self._inflight -= 1
        self.queue_depth.record(self.sim.now, float(self._inflight))
        self.request_latency.add(request.latency)
    status = request.status
    if status is not _OK:
        if status is RequestStatus.FAILED:
            self.requests_failed += 1
        elif status is RequestStatus.DEGRADED:
            self.requests_degraded += 1
        if self.faults is not None:
            if status is RequestStatus.FAILED:
                self.faults.requests_failed += 1
            elif status is RequestStatus.DEGRADED:
                self.faults.requests_degraded += 1
            else:
                self.faults.requests_corrected += 1
        if self._metrics_on:
            self._metrics.counter(
                f"{self._metrics_prefix}.requests."
                f"{status.value}").add()
    tracer = self.sim.tracer
    if tracer.enabled:
        span_args: typing.Dict[str, typing.Any] = {
            "address": request.address, "size": request.size,
            "req": request.request_id, "op": request.op.value,
        }
        if status is not RequestStatus.OK:
            span_args["status"] = status.value
        tracer.emit(f"{request.op.value} 0x{request.address:x}",
                    "requests", request.submit_time, self.sim.now,
                    asynchronous=True, **span_args)
    if failure is not None:
        request.result = (bytes(request.size)
                          if op is _READ else b"")
    else:
        pieces = [piece for result in results for piece in result]
        pieces.sort(key=lambda piece: piece[0])
        request.result = b"".join(data for _, data in pieces)
    self.requests_completed += 1
    if request.done is not None:
        request.done.succeed(request.result)
    return request.result


def _live_sampling():
    provider = types.SimpleNamespace(create_sampler=lambda: Sampler(
        MetricsRegistry(enabled=True), window_ns=500.0))
    return use_sampling(provider)


# ----------------------------------------------------------------------
# Cases
# ----------------------------------------------------------------------
@dataclasses.dataclass(frozen=True)
class Case:
    """One layer: its seed replica and how to switch it on."""

    name: str
    #: Acceptance bound on stock runtime / seed-replica runtime.
    bound: float = MAX_OVERHEAD
    #: ``(target, attribute, replacement)`` swapped in for the seed run.
    patches: typing.Tuple[typing.Tuple[object, str, object], ...] = ()
    #: Drive alternating reads and writes instead of reads only.
    writes: bool = False
    #: Fault plan of the stock run (the seed run has none).
    faults: FaultConfig | None = None
    #: Context that switches the layer on, for the identity check.
    enabled: typing.Callable[[], typing.ContextManager] | None = None


CASES = (
    # A plan whose probabilities are all zero against no plan: the
    # module and channel paths check `faults is not None` per access.
    Case("faults", writes=True, faults=FaultConfig(seed=9)),
    # The kernel observers: run()'s choice between its two drains,
    # the one cost a disabled observer has left.  Triggers and process
    # bootstraps take routes the simulator binds per instance; their
    # replicas, and the resource-claim and wake-up replicas, which
    # equal stock, pin them hook-free.  Per-event paths, so the bound
    # is tighter than the default.
    Case("sanitizer", bound=1.02, patches=(
        (Event, "succeed", _seed_succeed),
        (Event, "fail", _seed_fail),
        (Process, "__init__", _seed_process_init),
        (Process, "_resume", _seed_process_resume),
        (Resource, "request", _seed_request),
        (Resource, "release", _seed_release),
        (Simulator, "run", _bare_run),
    ), enabled=sanitize),
    # One always-on latency-sketch add per request completion (the
    # channels feed their per-chunk sketches only under metrics).
    Case("sampler", patches=(
        (LatencySketch, "add", _seed_sketch_add),
    ), enabled=_live_sampling),
    # The live in-flight counter and the fault_permanent flag.
    Case("service", writes=True, patches=(
        (PramSubsystem, "submit", _seed_submit),
    )),
)


def _drive(case: Case, seed: bool) -> typing.Tuple[float, float]:
    """Run ``REQUESTS`` requests back to back.

    Returns the simulated end time and the host seconds of the whole
    drive, from building the simulator to the end of ``run()``.
    """
    with pytest.MonkeyPatch.context() as patch:
        if seed:
            for target, name, replacement in case.patches:
                patch.setattr(target, name, replacement)
        # Collect the earlier runs' garbage first, so the collection it
        # would trigger does not land on whichever side allocates next.
        gc.collect()
        start = time.perf_counter()
        sim = Simulator()
        subsystem = PramSubsystem(sim, faults=None if seed else case.faults)

        def driver():
            for index in range(REQUESTS):
                address = (index * 512) % (1 << 20)
                if case.writes and index % 2:
                    request = MemoryRequest(Op.WRITE, address, 512,
                                            data=b"\x5A" * 512)
                else:
                    request = MemoryRequest(Op.READ, address, 512)
                yield sim.process(subsystem.submit(request))

        sim.process(driver())
        sim.run()
        return sim.now, time.perf_counter() - start


def _ratio(case: Case, repetitions: int) -> float:
    """Min-of-N interleaved ratio: stock run / seed-replica run.

    The side that runs first alternates from pair to pair, so whatever
    going first costs on the host falls on both sides alike.
    """
    times: typing.Dict[bool, typing.List[float]] = {False: [], True: []}
    for index in range(repetitions):
        for seed in (bool(index % 2), not index % 2):
            times[seed].append(_drive(case, seed)[1])
    return min(times[False]) / min(times[True])


@pytest.mark.parametrize("case", CASES, ids=lambda case: case.name)
def test_seed_replica_and_enabled_layer_match_stock(case):
    stock = _drive(case, seed=False)[0]
    assert _drive(case, seed=True)[0] == stock
    if case.enabled is not None:
        with case.enabled():
            assert _drive(case, seed=False)[0] == stock


@pytest.mark.parametrize("case", CASES, ids=lambda case: case.name)
def test_disabled_layer_overhead_within_bound(case):
    _drive(case, seed=False)  # warm caches/allocator before timing
    ratio = _ratio(case, 7)
    if ratio > case.bound:  # one retry with more repetitions
        ratio = _ratio(case, 15)
    assert ratio <= case.bound, (
        f"{case.name}: stock run is {ratio:.3f}x its seed replica "
        f"(bound {case.bound}x)")
