"""Service-layer configuration: one overload-safe traffic plan.

:class:`ServiceConfig` describes an *open-loop* request stream offered
to the PRAM subsystem — how many tenants, which arrival process, how
hard — plus every robustness knob the front end applies to it:
bounded per-tenant admission queues, per-request deadlines, seeded
retry budgets, and the brownout thresholds that shed optional work
class by class instead of collapsing.

Like :class:`repro.faults.plan.FaultConfig`, the plan is a frozen,
trivially hashable dataclass with a ``key=value,...`` CLI spec parser
(``--service``), and **every field is validated at parse time**:
negative, zero, or NaN arrival rates, deadlines, and retry budgets
raise :class:`ValueError` naming the offending field, so a typo fails
in milliseconds instead of after minutes of simulation.
"""

from __future__ import annotations

import dataclasses
import math
import typing

from repro.faults.plan import parse_plan

#: Arrival processes the service layer can synthesize.
ARRIVAL_KINDS: typing.Tuple[str, ...] = ("poisson", "mmpp", "diurnal")


@dataclasses.dataclass(frozen=True)
class TenantClass:
    """One service class: shed priority plus its latency SLO.

    ``shed_rank`` orders brownout shedding: a brownout at level ``L``
    stops admitting classes with ``shed_rank < L``, so rank 0 is shed
    first and the highest rank is never shed (the brownout controller
    walks levels ``0..max_rank`` only).  ``slo_factor`` scales the
    configured deadline into the class's p99 latency SLO.
    """

    name: str
    shed_rank: int
    slo_factor: float


#: The three built-in tenant classes, most-protected first.  Tenant
#: ``i`` belongs to class ``i % 3``, so every class is populated for
#: any tenant count >= 3.
TENANT_CLASSES: typing.Tuple[TenantClass, ...] = (
    TenantClass("premium", shed_rank=2, slo_factor=0.5),
    TenantClass("standard", shed_rank=1, slo_factor=1.0),
    TenantClass("batch", shed_rank=0, slo_factor=2.0),
)


def tenant_class(tenant: int) -> TenantClass:
    """The service class tenant ``tenant`` belongs to."""
    return TENANT_CLASSES[tenant % len(TENANT_CLASSES)]


#: Keys of ``--service`` key=value specs: alias -> field.  Full field
#: names are accepted too.
_PLAN_KEYS: typing.Dict[str, str] = {
    "seed": "seed",
    "tenants": "tenants",
    "arrival": "arrival",
    "rate_rps": "rate_rps",
    "rate": "rate_rps",
    "duration": "duration_ns",
    "duration_ns": "duration_ns",
    "queue": "queue_depth",
    "queue_depth": "queue_depth",
    "deadline": "deadline_ns",
    "deadline_ns": "deadline_ns",
    "retries": "retry_budget",
    "retry_budget": "retry_budget",
    "backoff": "retry_backoff_ns",
    "backoff_ns": "retry_backoff_ns",
    "multiplier": "backoff_multiplier",
    "workers": "workers",
    "size": "request_bytes",
    "request_bytes": "request_bytes",
    "read": "read_fraction",
    "read_fraction": "read_fraction",
    "footprint": "footprint_bytes",
    "burst_factor": "burst_factor",
    "burst_fraction": "burst_fraction",
    "burst_ns": "burst_ns",
    "diurnal_period_ns": "diurnal_period_ns",
    "diurnal_amplitude": "diurnal_amplitude",
    "rogue_tenants": "rogue_tenants",
    "rogue_factor": "rogue_factor",
    "brownout_high": "brownout_high",
    "brownout_low": "brownout_low",
    "sweep_ns": "sweep_interval_ns",
    "sweep_interval_ns": "sweep_interval_ns",
    "shared_queue": "shared_queue",
}


@dataclasses.dataclass(frozen=True)
class ServiceConfig:
    """One reproducible multi-tenant traffic plan.

    Rates are expressed in requests per *second* on the CLI for
    familiarity; the arrival synthesizer converts to requests per
    simulated nanosecond internally.  ``rate_rps`` is the **total**
    offered rate across all tenants; each tenant offers an equal share
    (misbehaving tenants multiply theirs by ``rogue_factor``).
    """

    seed: int = 0
    #: Number of concurrent tenants (each with its own bounded queue).
    tenants: int = 6
    #: Arrival process: ``poisson``, ``mmpp`` (bursty two-state
    #: Markov-modulated), or ``diurnal`` (sinusoidally modulated).
    arrival: str = "poisson"
    #: Total offered arrival rate across tenants, requests/second.
    rate_rps: float = 4e6
    #: Open-loop offered-traffic window, simulated nanoseconds.
    duration_ns: float = 200_000.0
    #: Bounded admission queue depth per tenant (arrivals beyond it
    #: are shed with a rejection status, never queued unboundedly).
    queue_depth: int = 8
    #: End-to-end deadline per request, from arrival.
    deadline_ns: float = 50_000.0
    #: Service-level retries per request (composes with the device's
    #: program-and-verify retries; see
    #: :func:`repro.faults.plan.compose_service_retries`).
    retry_budget: int = 2
    #: Base service-level retry backoff (doubles per attempt by
    #: default; the wait still counts against the request's deadline).
    retry_backoff_ns: float = 1_000.0
    #: Exponential backoff multiplier per retry attempt.
    backoff_multiplier: float = 2.0
    #: Dispatch concurrency: max requests in flight into the subsystem.
    workers: int = 8
    #: Bytes per request.
    request_bytes: int = 512
    #: Fraction of requests that are reads (draws are per-request,
    #: seeded).
    read_fraction: float = 0.75
    #: Address space the request stream is spread over.
    footprint_bytes: int = 1 << 20
    #: MMPP: burst-state rate multiplier over the quiet-state rate.
    burst_factor: float = 8.0
    #: MMPP: expected fraction of time spent in the burst state.
    burst_fraction: float = 0.125
    #: MMPP: mean burst sojourn length.
    burst_ns: float = 20_000.0
    #: Diurnal: modulation period.
    diurnal_period_ns: float = 100_000.0
    #: Diurnal: relative modulation amplitude in [0, 1).
    diurnal_amplitude: float = 0.8
    #: Leading tenants that misbehave (offer ``rogue_factor`` times
    #: their fair share) — the tenant-isolation experiment's adversary.
    rogue_tenants: int = 0
    #: Rate multiplier applied to misbehaving tenants.
    rogue_factor: float = 10.0
    #: Brownout: raise the shedding level when queue pressure reaches
    #: this fraction of total queue capacity...
    brownout_high: float = 0.75
    #: ...and lower it again once pressure falls back to this fraction.
    brownout_low: float = 0.5
    #: Period of the deadline sweeper that expires overdue queued
    #: requests on simulated time.
    sweep_interval_ns: float = 5_000.0
    #: Degraded mode: 1 collapses the per-tenant queues into one shared
    #: FIFO of the same total capacity (no admission isolation) — the
    #: tenant-isolation experiment's contrast arm.
    shared_queue: int = 0

    def __post_init__(self) -> None:
        for field in ("tenants", "queue_depth", "workers",
                      "request_bytes"):
            value = getattr(self, field)
            if value < 1:
                raise ValueError(f"{field} must be >= 1, got {value}")
        if self.arrival not in ARRIVAL_KINDS:
            raise ValueError(
                f"arrival must be one of {ARRIVAL_KINDS}, got "
                f"{self.arrival!r}")
        for field in ("rate_rps", "duration_ns", "deadline_ns",
                      "diurnal_period_ns", "sweep_interval_ns",
                      "burst_ns"):
            value = getattr(self, field)
            if math.isnan(value):
                raise ValueError(f"{field} must not be NaN")
            if not value > 0.0:
                raise ValueError(f"{field} must be > 0, got {value}")
            if math.isinf(value):
                raise ValueError(f"{field} must be finite, got {value}")
        if self.retry_budget < 0:
            raise ValueError(
                f"retry_budget must be >= 0, got {self.retry_budget}")
        if math.isnan(self.retry_backoff_ns) or self.retry_backoff_ns <= 0:
            raise ValueError(
                f"retry_backoff_ns must be > 0, got "
                f"{self.retry_backoff_ns}")
        if math.isnan(self.backoff_multiplier) or self.backoff_multiplier < 1:
            raise ValueError(
                f"backoff_multiplier must be >= 1, got "
                f"{self.backoff_multiplier}")
        for field in ("read_fraction", "burst_fraction"):
            value = getattr(self, field)
            if math.isnan(value) or not 0.0 <= value <= 1.0:
                raise ValueError(
                    f"{field} must be within [0, 1], got {value}")
        if (math.isnan(self.diurnal_amplitude)
                or not 0.0 <= self.diurnal_amplitude < 1.0):
            raise ValueError(
                f"diurnal_amplitude must be within [0, 1), got "
                f"{self.diurnal_amplitude}")
        for field in ("burst_factor", "rogue_factor"):
            value = getattr(self, field)
            if math.isnan(value) or value < 1.0:
                raise ValueError(f"{field} must be >= 1, got {value}")
        if not 0 <= self.rogue_tenants <= self.tenants:
            raise ValueError(
                f"rogue_tenants must be within [0, tenants="
                f"{self.tenants}], got {self.rogue_tenants}")
        for field in ("brownout_high", "brownout_low"):
            value = getattr(self, field)
            if math.isnan(value) or not 0.0 < value <= 1.0:
                raise ValueError(
                    f"{field} must be within (0, 1], got {value}")
        if self.brownout_low >= self.brownout_high:
            raise ValueError(
                f"brownout_low ({self.brownout_low}) must be below "
                f"brownout_high ({self.brownout_high})")
        if self.footprint_bytes < self.request_bytes:
            raise ValueError(
                f"footprint_bytes ({self.footprint_bytes}) must be >= "
                f"request_bytes ({self.request_bytes})")
        if self.shared_queue not in (0, 1):
            raise ValueError(
                f"shared_queue must be 0 or 1, got {self.shared_queue}")

    @property
    def rate_per_ns(self) -> float:
        """Total offered rate in requests per simulated nanosecond."""
        return self.rate_rps * 1e-9

    def tenant_rate_per_ns(self, tenant: int) -> float:
        """Tenant ``tenant``'s offered rate (fair share, rogue-scaled)."""
        share = self.rate_per_ns / self.tenants
        if tenant < self.rogue_tenants:
            return share * self.rogue_factor
        return share

    def slo_p99_ns(self, cls: TenantClass) -> float:
        """Class ``cls``'s p99 latency SLO in nanoseconds."""
        return cls.slo_factor * self.deadline_ns

    @classmethod
    def parse(cls, spec: str) -> "ServiceConfig":
        """Build a plan from a ``key=value,key=value`` CLI spec.

        Keys are the aliases in the README's Service layer section
        (``rate``, ``deadline``, ``retries``, ...) or full field names.
        Raises :class:`ValueError` naming the offending key or field on
        any nonsense input — the same parser as
        :meth:`repro.faults.plan.FaultConfig.parse`.
        """
        return cls(**parse_plan(cls, spec, "service-plan", _PLAN_KEYS))
