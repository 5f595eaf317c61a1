"""The open-loop multi-tenant front end on the PRAM subsystem.

:class:`ServiceFrontend` converts the closed-loop simulator into a
*served system*: a seeded arrival timeline offers requests whether or
not the subsystem can keep up, and the front end defends itself with
the classic overload toolkit —

* **bounded admission queues** (per tenant, or one shared FIFO in the
  degraded ``shared_queue`` contrast mode): an arrival that finds its
  queue full is shed with a rejection outcome, never queued unboundedly;
* **a brownout controller** that walks the shed ladder class by class
  (batch first, premium never) when queue pressure or the subsystem's
  submit-side backpressure crosses the configured high-water mark, and
  walks back down under hysteresis;
* **deadline propagation**: every request carries an absolute deadline
  on simulated time; a periodic sweeper and lazy dequeue-side checks
  expire overdue queued work without spending device time on it, and a
  completion past its deadline counts as a timeout, not goodput;
* **bounded, backoff-spaced retries** that compose with the device's
  own program-and-verify retries through
  :func:`repro.faults.plan.compose_service_retries` — permanent faults
  (row unrecoverable, protocol errors) are never retried, and a retry
  is only attempted while its backoff still fits inside the deadline,
  so overload cannot amplify into a retry storm.

Everything runs on simulated time inside one :class:`Simulator`, and
every decision is a pure function of the seeded timeline plus the
kernel's FIFO tie-break — so a fixed :class:`ServiceConfig` reproduces
identical outcomes bit for bit, serially and under ``--jobs N``.
"""

from __future__ import annotations

import collections
import dataclasses
import typing

from repro.controller.request import MemoryRequest, Op, RequestStatus
from repro.faults.plan import FaultConfig, compose_service_retries
from repro.service.arrivals import Arrival, merged_timeline
from repro.service.config import (
    TENANT_CLASSES,
    ServiceConfig,
    TenantClass,
    tenant_class,
)
from repro.sim import Simulator
from repro.sim.stats import LatencySketch
from repro.telemetry.metrics import current_metrics


class ServiceBackend(typing.Protocol):
    """What the front end needs from a memory subsystem.

    :class:`~repro.controller.controller.PramSubsystem` satisfies this;
    tests substitute fixed-latency stubs to exercise admission and
    retry logic without device physics.
    """

    fault_config: typing.Optional[FaultConfig]

    def submit(self, request: MemoryRequest) -> typing.Generator:
        """Process body servicing one request to completion."""
        ...  # pragma: no cover - protocol

    def backpressure(self) -> float:
        """Submit-side congestion in [0, 1]."""
        ...  # pragma: no cover - protocol


@dataclasses.dataclass
class ServiceRequest:
    """One admitted request waiting for (or receiving) service."""

    tenant: int
    op: Op
    address: int
    arrival: float
    deadline: float
    attempts: int = 0


class TenantStats:
    """Outcome ledger and latency sketch for one tenant.

    Every offered request lands in exactly one terminal bucket:
    ``shed_queue`` / ``shed_brownout`` (rejected at admission),
    ``expired`` (deadline passed while queued), ``late`` (completed
    after its deadline), ``failed``, or one of the completion statuses
    ``ok`` / ``corrected`` / ``degraded`` (goodput, sketched).
    """

    def __init__(self, tenant: int, cls: TenantClass) -> None:
        self.tenant = tenant
        self.cls = cls
        self.offered = 0
        self.shed_queue = 0
        self.shed_brownout = 0
        self.expired = 0
        self.late = 0
        self.ok = 0
        self.corrected = 0
        self.degraded = 0
        self.failed = 0
        self.retries = 0
        self.sketch = LatencySketch(f"service.sketch.t{tenant}")

    @property
    def shed(self) -> int:
        """Requests rejected at admission (no device work spent)."""
        return self.shed_queue + self.shed_brownout

    @property
    def timeout(self) -> int:
        """Requests whose deadline passed, queued or in service."""
        return self.expired + self.late

    @property
    def admitted(self) -> int:
        """Requests that made it past admission control."""
        return self.offered - self.shed

    @property
    def goodput(self) -> int:
        """Requests completed within deadline with usable data."""
        return self.ok + self.corrected + self.degraded

    def outcome_counts(self) -> typing.Dict[str, float]:
        """Ledger keyed by :data:`repro.service.summary.SEVERITY_ORDER`."""
        return {
            "ok": float(self.ok),
            "corrected": float(self.corrected),
            "degraded": float(self.degraded),
            "shed": float(self.shed),
            "timeout": float(self.timeout),
            "failed": float(self.failed),
        }


@dataclasses.dataclass
class ClassStats:
    """One tenant class's aggregate outcomes and SLO verdict."""

    cls: TenantClass
    offered: int
    shed: int
    timeout: int
    failed: int
    degraded: int
    corrected: int
    ok: int
    retries: int
    sketch: LatencySketch
    slo_p99_ns: float

    @property
    def goodput(self) -> int:
        """Requests completed within deadline with usable data."""
        return self.ok + self.corrected + self.degraded

    @property
    def p99_ns(self) -> typing.Optional[float]:
        """p99 end-to-end latency over goodput, None with no samples."""
        if not self.sketch.count:
            return None
        return self.sketch.percentile(0.99)

    @property
    def meets_slo(self) -> bool:
        """Whether the class's goodput p99 is within its latency SLO."""
        p99 = self.p99_ns
        return p99 is None or p99 <= self.slo_p99_ns


@dataclasses.dataclass
class ServiceResult:
    """Everything one service run produced."""

    config: ServiceConfig
    elapsed_ns: float
    tenants: typing.List[TenantStats]
    #: Simulated time spent at each brownout level (0 = no shedding).
    brownout_ns: typing.Dict[int, float]

    def totals(self) -> typing.Dict[str, float]:
        """Outcome ledger summed across tenants."""
        totals: typing.Dict[str, float] = {}
        for stats in self.tenants:
            for name, value in stats.outcome_counts().items():
                totals[name] = totals.get(name, 0.0) + value
        return totals

    @property
    def offered(self) -> int:
        """Total requests the arrival processes offered."""
        return sum(stats.offered for stats in self.tenants)

    @property
    def goodput(self) -> int:
        """Total requests completed in time with usable data."""
        return sum(stats.goodput for stats in self.tenants)

    @property
    def goodput_rps(self) -> float:
        """Goodput rate in requests per second of simulated time."""
        if self.elapsed_ns <= 0.0:
            return 0.0
        return self.goodput / self.elapsed_ns * 1e9

    def class_stats(self, *, compliant_only: bool = False
                    ) -> typing.Dict[str, ClassStats]:
        """Per-class aggregates in shed order (most protected last).

        ``compliant_only`` drops the misbehaving tenants (the leading
        ``rogue_tenants``) from the aggregation — the tenant-isolation
        experiment judges SLOs over the *victims*, not the adversary.
        """
        rogue = self.config.rogue_tenants if compliant_only else 0
        out: typing.Dict[str, ClassStats] = {}
        for cls in TENANT_CLASSES:
            members = [stats for stats in self.tenants
                       if stats.cls is cls and stats.tenant >= rogue]
            if not members:
                continue
            sketch = LatencySketch(f"service.sketch.{cls.name}")
            for stats in members:
                sketch.merge(stats.sketch)
            out[cls.name] = ClassStats(
                cls=cls,
                offered=sum(s.offered for s in members),
                shed=sum(s.shed for s in members),
                timeout=sum(s.timeout for s in members),
                failed=sum(s.failed for s in members),
                degraded=sum(s.degraded for s in members),
                corrected=sum(s.corrected for s in members),
                ok=sum(s.ok for s in members),
                retries=sum(s.retries for s in members),
                sketch=sketch,
                slo_p99_ns=self.config.slo_p99_ns(cls))
        return out

    def merged_sketch(self) -> LatencySketch:
        """All tenants' goodput latencies as one sketch."""
        merged = LatencySketch("service.sketch")
        for stats in self.tenants:
            merged.merge(stats.sketch)
        return merged


class ServiceFrontend:
    """Admission control, dispatch, deadlines, retries, and brownout."""

    def __init__(self, sim: Simulator, backend: ServiceBackend,
                 config: ServiceConfig) -> None:
        self.sim = sim
        self.backend = backend
        self.config = config
        self.stats = [TenantStats(tenant, tenant_class(tenant))
                      for tenant in range(config.tenants)]
        # One bounded FIFO per tenant, or a single shared FIFO of the
        # same total capacity in the no-isolation contrast mode.
        if config.shared_queue:
            self._queues: typing.List[typing.Deque[ServiceRequest]] = [
                collections.deque()]
            self._queue_capacity = config.queue_depth * config.tenants
        else:
            self._queues = [collections.deque()
                            for _ in range(config.tenants)]
            self._queue_capacity = config.queue_depth
        self._queued = 0
        self._rr = 0
        self._work = sim.event()
        self._injector_done = False
        self.inflight = 0
        # Brownout: level L sheds classes with shed_rank < L at
        # admission, so the highest rank (premium) is never shed.
        self.brownout_level = 0
        self._max_level = max(cls.shed_rank for cls in TENANT_CLASSES)
        self.brownout_ns = {level: 0.0
                            for level in range(self._max_level + 1)}
        self._level_since = sim.now
        # The retry-composition handshake with repro.faults: the
        # device layer's bounded program-and-verify retries spend from
        # the same end-to-end budget first.
        self._retry_budget = compose_service_retries(
            config.retry_budget, backend.fault_config)

    # ------------------------------------------------------------------
    # Driving the run
    # ------------------------------------------------------------------
    def run(self) -> ServiceResult:
        """Offer the full seeded timeline and drain it to completion.

        A process that fails (a backend error the subsystem does not
        contain) raises its error here; of several, the one started
        first.
        """
        timeline = merged_timeline(self.config)
        processes = [self.sim.process(self._inject(timeline))]
        for _ in range(self.config.workers):
            processes.append(self.sim.process(self._worker()))
        processes.append(self.sim.process(self._sweep()))
        self.sim.run()
        for process in processes:
            if not process.ok:
                raise typing.cast(BaseException, process.value)
        self._roll_level(self.brownout_level)
        result = ServiceResult(
            config=self.config, elapsed_ns=self.sim.now,
            tenants=self.stats, brownout_ns=dict(self.brownout_ns))
        self._publish_metrics(result)
        return result

    def _inject(self, timeline: typing.Sequence[Arrival]
                ) -> typing.Generator:
        """Process body: replay the offered timeline open-loop."""
        for arrival in timeline:
            if arrival.time > self.sim.now:
                yield self.sim.deadline(arrival.time)
            self._admit(arrival)
        self._injector_done = True
        self._signal()

    def _worker(self) -> typing.Generator:
        """Process body: one dispatch slot serving queued requests."""
        while True:
            request = self._dequeue()
            if request is None:
                if self._injector_done:
                    return
                yield self._work
                continue
            yield from self._serve(request)

    def _sweep(self) -> typing.Generator:
        """Process body: periodically expire overdue queued requests.

        Deadlines are enforced lazily at dequeue too; the sweeper
        bounds how stale a queued-but-doomed request can get without
        scheduling one timer event per request.
        """
        interval = self.config.sweep_interval_ns
        while True:
            yield self.sim.timeout(interval)
            self._expire_queued()
            if self._injector_done and self._queued == 0:
                return

    # ------------------------------------------------------------------
    # Admission control and brownout
    # ------------------------------------------------------------------
    def _admit(self, arrival: Arrival) -> None:
        stats = self.stats[arrival.tenant]
        stats.offered += 1
        if stats.cls.shed_rank < self.brownout_level:
            stats.shed_brownout += 1
            return
        queue = self._queue_for(arrival.tenant)
        if len(queue) >= self._queue_capacity:
            stats.shed_queue += 1
            self._update_brownout()
            return
        queue.append(ServiceRequest(
            tenant=arrival.tenant, op=arrival.op,
            address=arrival.address, arrival=arrival.time,
            deadline=arrival.time + self.config.deadline_ns))
        self._queued += 1
        self._update_brownout()
        self._signal()

    def _queue_for(self, tenant: int) -> typing.Deque[ServiceRequest]:
        return self._queues[0 if self.config.shared_queue else tenant]

    def _pressure(self) -> float:
        """Combined queue occupancy and subsystem backpressure."""
        capacity = self._queue_capacity * len(self._queues)
        return max(self._queued / capacity, self.backend.backpressure())

    def _update_brownout(self) -> None:
        pressure = self._pressure()
        level = self.brownout_level
        if (pressure >= self.config.brownout_high
                and level < self._max_level):
            self._set_level(level + 1)
        elif pressure <= self.config.brownout_low and level > 0:
            self._set_level(level - 1)

    def _set_level(self, level: int) -> None:
        self._roll_level(self.brownout_level)
        self.brownout_level = level

    def _roll_level(self, level: int) -> None:
        now = self.sim.now
        self.brownout_ns[level] += now - self._level_since
        self._level_since = now

    def _signal(self) -> None:
        """Wake idle workers (one-shot condition-variable idiom)."""
        event, self._work = self._work, self.sim.event()
        event.succeed()

    # ------------------------------------------------------------------
    # Dispatch, deadlines, and retries
    # ------------------------------------------------------------------
    def _expire_queued(self) -> None:
        """Drop queued requests whose deadline already passed.

        Queue order is arrival order and every request in a queue
        carries the same deadline offset, so deadlines are monotone
        per queue and popping expired heads is complete.
        """
        now = self.sim.now
        expired = 0
        for queue in self._queues:
            while queue and queue[0].deadline <= now:
                request = queue.popleft()
                self._queued -= 1
                self.stats[request.tenant].expired += 1
                expired += 1
        if expired:
            self._update_brownout()

    def _dequeue(self) -> typing.Optional[ServiceRequest]:
        """Next serviceable request, deterministic round-robin."""
        self._expire_queued()
        count = len(self._queues)
        for offset in range(count):
            index = (self._rr + offset) % count
            queue = self._queues[index]
            if queue:
                self._rr = (index + 1) % count
                self._queued -= 1
                request = queue.popleft()
                self._update_brownout()
                return request
        return None

    def _serve(self, request: ServiceRequest) -> typing.Generator:
        """Process body: one request through submit + bounded retries."""
        stats = self.stats[request.tenant]
        config = self.config
        self.inflight += 1
        while True:
            memory = self._memory_request(request)
            yield from self.backend.submit(memory)
            if memory.status is not RequestStatus.FAILED:
                break
            # Retry only transient failures, within the composed
            # budget, and only if the backoff still fits inside the
            # deadline: a doomed retry is exactly the storm fuel the
            # composition contract exists to deny.
            if memory.fault_permanent:
                break
            if request.attempts >= self._retry_budget:
                break
            backoff = (config.retry_backoff_ns
                       * config.backoff_multiplier ** request.attempts)
            if self.sim.now + backoff >= request.deadline:
                break
            request.attempts += 1
            stats.retries += 1
            yield self.sim.timeout(backoff)
        self.inflight -= 1
        now = self.sim.now
        if memory.status is RequestStatus.FAILED:
            stats.failed += 1
        elif now > request.deadline:
            stats.late += 1
        else:
            stats.sketch.add(now - request.arrival)
            if memory.status is RequestStatus.OK:
                stats.ok += 1
            elif memory.status is RequestStatus.CORRECTED:
                stats.corrected += 1
            else:
                stats.degraded += 1

    def _memory_request(self, request: ServiceRequest) -> MemoryRequest:
        size = self.config.request_bytes
        if request.op is Op.READ:
            return MemoryRequest(Op.READ, request.address, size)
        payload = bytes([request.tenant & 0xFF]) * size
        return MemoryRequest(Op.WRITE, request.address, size,
                             data=payload)

    # ------------------------------------------------------------------
    # Telemetry
    # ------------------------------------------------------------------
    def _publish_metrics(self, result: ServiceResult) -> None:
        """Feed outcome counters + class sketches into ambient metrics.

        Each run reserves its own ``service`` prefix (``service#2`` for
        the second run under one registry, ...): a sweep runs the front
        end many times, and every run owns fresh class sketches.
        """
        metrics = current_metrics()
        if not metrics.enabled:
            return
        prefix = metrics.component_prefix("service")
        totals = result.totals()
        for name in ("ok", "corrected", "degraded", "shed", "timeout",
                     "failed"):
            value = totals.get(name, 0.0)
            if value:
                metrics.counter(f"{prefix}.requests.{name}").add(value)
        metrics.counter(f"{prefix}.requests.offered").add(
            float(result.offered))
        retries = sum(stats.retries for stats in result.tenants)
        if retries:
            metrics.counter(f"{prefix}.retries").add(float(retries))
        for name, cls_stats in result.class_stats().items():
            metrics.attach(f"{prefix}.sketch.{name}", cls_stats.sketch)
