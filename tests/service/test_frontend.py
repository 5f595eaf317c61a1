"""Front-end behavior against a scripted fixed-latency backend.

A stub :class:`~repro.service.frontend.ServiceBackend` replaces the
PRAM subsystem so admission control, brownout, deadlines, and the
retry path can be exercised with exact, hand-computable outcomes.
"""

import dataclasses
import typing

import pytest

from repro.controller.request import MemoryRequest, Op, RequestStatus
from repro.faults.plan import FaultConfig, compose_service_retries
from repro.service import (
    ServiceConfig,
    ServiceFrontend,
    ServiceRequest,
    outcome_summary,
    tenant_class,
)
from repro.sim import Simulator


class StubBackend:
    """Fixed-latency backend with a scripted outcome tape.

    ``outcomes`` is consumed one entry per submit: each entry is a
    status or a ``(status, permanent)`` pair; when the tape runs dry
    every further submit completes OK.
    """

    def __init__(self, sim: Simulator, latency: float = 100.0,
                 outcomes: typing.Sequence = (),
                 fault_config: typing.Optional[FaultConfig] = None,
                 pressure: float = 0.0) -> None:
        self.sim = sim
        self.latency = latency
        self.fault_config = fault_config
        self.pressure = pressure
        self.submits = 0
        self._tape = list(outcomes)

    def submit(self, request: MemoryRequest) -> typing.Generator:
        self.submits += 1
        yield self.sim.timeout(self.latency)
        if self._tape:
            entry = self._tape.pop(0)
            if isinstance(entry, tuple):
                status, permanent = entry
                request.fault_permanent = permanent
            else:
                status = entry
            request.status = status

    def backpressure(self) -> float:
        return self.pressure


BASE = ServiceConfig(seed=5, tenants=3, rate_rps=1e6,
                     duration_ns=50_000.0, queue_depth=4, workers=2,
                     deadline_ns=10_000.0, retry_budget=2,
                     retry_backoff_ns=100.0)


def run_frontend(config=BASE, **backend_kwargs):
    sim = Simulator()
    backend = StubBackend(sim, **backend_kwargs)
    frontend = ServiceFrontend(sim, backend, config)
    return frontend.run(), backend


class BrokenBackend(StubBackend):
    """A backend whose submit fails with an error it does not contain."""

    def submit(self, request: MemoryRequest) -> typing.Generator:
        self.submits += 1
        yield self.sim.timeout(self.latency)
        raise RuntimeError("backend broke")


def test_a_backend_error_raises_from_run():
    # Three requests, one worker: the worker's failure must surface,
    # not drop the request it served from every count while the
    # other two expire in the queue.
    config = dataclasses.replace(BASE, tenants=1, rate_rps=1e5,
                                 duration_ns=20_000.0, workers=1)
    sim = Simulator()
    backend = BrokenBackend(sim)
    with pytest.raises(RuntimeError, match="backend broke"):
        ServiceFrontend(sim, backend, config).run()
    assert backend.submits == 1


def test_everything_completes_at_light_load():
    result, backend = run_frontend()
    totals = result.totals()
    assert totals["ok"] == result.offered > 0
    assert totals["shed"] == totals["timeout"] == totals["failed"] == 0
    assert backend.submits == result.offered
    assert outcome_summary(totals) == "all ok"


def test_offered_ledger_is_conserved():
    # Slow backend, tight deadline: every offered request still lands
    # in exactly one terminal bucket.
    config = dataclasses.replace(BASE, rate_rps=4e6, workers=1,
                                 queue_depth=2, deadline_ns=2_000.0)
    result, _ = run_frontend(config, latency=1_500.0)
    totals = result.totals()
    assert sum(totals.values()) == result.offered
    assert totals["shed"] > 0 or totals["timeout"] > 0


def test_queue_full_sheds_instead_of_queueing():
    # One worker stuck in a long submit; depth-1 queues overflow fast.
    config = dataclasses.replace(BASE, workers=1, queue_depth=1,
                                 rate_rps=4e6)
    result, _ = run_frontend(config, latency=30_000.0)
    shed = sum(stats.shed_queue for stats in result.tenants)
    assert shed > 0
    for stats in result.tenants:
        assert stats.offered == (stats.shed + stats.timeout
                                 + stats.goodput + stats.failed)


def test_brownout_sheds_batch_first_and_premium_never():
    # Saturate hard enough to hold the brownout ladder up: batch
    # (rank 0) must shed at admission, premium (rank 2) never.
    config = dataclasses.replace(BASE, tenants=6, workers=1,
                                 queue_depth=2, rate_rps=2e7,
                                 brownout_high=0.4, brownout_low=0.1)
    result, _ = run_frontend(config, latency=20_000.0)
    by_class = {}
    for stats in result.tenants:
        by_class.setdefault(stats.cls.name, 0)
        by_class[stats.cls.name] += stats.shed_brownout
    assert by_class["batch"] > 0
    assert by_class["premium"] == 0
    assert sum(result.brownout_ns[level]
               for level in result.brownout_ns if level > 0) > 0.0


def test_deadline_expires_queued_work_without_device_time():
    # Backend so slow nothing queued can start before its deadline:
    # the sweeper must expire it, not the backend.
    config = dataclasses.replace(BASE, workers=1, queue_depth=4,
                                 deadline_ns=1_000.0,
                                 sweep_interval_ns=500.0)
    result, backend = run_frontend(config, latency=40_000.0)
    expired = sum(stats.expired for stats in result.tenants)
    assert expired > 0
    # Device time was spent only on what actually dispatched.
    assert backend.submits < result.offered


def test_late_completion_counts_as_timeout_not_goodput():
    config = dataclasses.replace(BASE, rate_rps=2e5, workers=4,
                                 deadline_ns=500.0)
    result, _ = run_frontend(config, latency=800.0)
    totals = result.totals()
    assert result.offered > 0
    assert totals["ok"] == 0
    assert totals["timeout"] == result.offered
    assert sum(stats.late for stats in result.tenants) > 0


def serve_one(config, outcomes, fault_config=None, latency=10.0,
              deadline=1e6):
    """Push one hand-built request through the serve/retry path."""
    sim = Simulator()
    backend = StubBackend(sim, latency=latency, outcomes=outcomes,
                          fault_config=fault_config)
    frontend = ServiceFrontend(sim, backend, config)
    request = ServiceRequest(tenant=0, op=Op.READ, address=0,
                             arrival=0.0, deadline=deadline)
    sim.process(frontend._serve(request))
    sim.run()
    return frontend.stats[0], backend


class TestRetryPath:
    """Bounded, backoff-spaced retries and the composition contract."""

    def test_transient_failure_retried_to_success(self):
        stats, backend = serve_one(
            BASE, [RequestStatus.FAILED, RequestStatus.FAILED])
        assert backend.submits == 3
        assert stats.ok == 1
        assert stats.retries == 2

    def test_budget_exhaustion_fails_request(self):
        stats, backend = serve_one(BASE, [RequestStatus.FAILED] * 5)
        # budget 2 => 1 initial + 2 retries, then give up.
        assert backend.submits == 3
        assert stats.failed == 1
        assert stats.ok == 0

    def test_permanent_failure_never_retried(self):
        stats, backend = serve_one(BASE, [(RequestStatus.FAILED, True)])
        assert backend.submits == 1
        assert stats.failed == 1
        assert stats.retries == 0

    def test_device_retries_spend_the_service_budget(self):
        # The device layer already retries programs 2x, so the service
        # keeps budget - 2 attempts: composition, not multiplication.
        plan = FaultConfig(seed=1, max_program_retries=2)
        assert compose_service_retries(3, plan) == 1
        stats, backend = serve_one(BASE, [RequestStatus.FAILED] * 5,
                                   fault_config=plan)
        # service budget = max(0, 2 - 2) = 0: no service retry at all.
        assert backend.submits == 1
        assert stats.failed == 1

    def test_compose_rejects_negative_budget(self):
        with pytest.raises(ValueError, match="retry budget"):
            compose_service_retries(-1, None)

    def test_backoff_grows_exponentially(self):
        # Two retries at backoff 100 * 2**attempt: completion time is
        # 3 submits + 100 + 200 of backoff exactly.
        stats, backend = serve_one(
            BASE, [RequestStatus.FAILED, RequestStatus.FAILED],
            latency=10.0)
        assert backend.sim.now == pytest.approx(3 * 10.0 + 100.0 + 200.0)

    def test_backoff_respects_deadline(self):
        # Deadline too tight for even one backoff: fail immediately
        # rather than retrying into certain lateness.
        config = dataclasses.replace(BASE, retry_backoff_ns=1_000.0)
        stats, backend = serve_one(config, [RequestStatus.FAILED] * 3,
                                   deadline=105.0)
        assert backend.submits == 1
        assert stats.failed == 1
        assert stats.retries == 0


class TestSeverityLattice:
    """RequestStatus propagation through the service retry path."""

    @pytest.mark.parametrize("status,bucket", [
        (RequestStatus.OK, "ok"),
        (RequestStatus.CORRECTED, "corrected"),
        (RequestStatus.DEGRADED, "degraded"),
    ])
    def test_non_failed_statuses_count_once(self, status, bucket):
        stats, _ = serve_one(BASE, [status])
        counts = stats.outcome_counts()
        assert counts[bucket] == 1
        assert sum(counts.values()) == 1
        # CORRECTED / DEGRADED are goodput: latency is sketched.
        assert stats.sketch.count == 1

    def test_corrected_not_retried(self):
        # CORRECTED is a *successful* completion on the lattice; the
        # retry path only fires on FAILED.
        stats, backend = serve_one(BASE, [RequestStatus.CORRECTED])
        assert backend.submits == 1
        assert stats.retries == 0
        assert stats.corrected == 1

    def test_retry_clears_transient_degradation(self):
        # FAILED then CORRECTED: the retry's own (fresh) request
        # carries the final status.
        stats, _ = serve_one(
            BASE, [RequestStatus.FAILED, RequestStatus.CORRECTED])
        assert stats.corrected == 1
        assert stats.retries == 1


def test_subsystem_backpressure_feeds_brownout():
    # Queue occupancy stays low, but the backend reports saturation:
    # the brownout controller must still climb.
    config = dataclasses.replace(BASE, tenants=6, brownout_high=0.9,
                                 brownout_low=0.2)
    result, _ = run_frontend(config, pressure=1.0)
    assert sum(result.brownout_ns[level]
               for level in result.brownout_ns if level > 0) > 0.0
    shed = sum(stats.shed_brownout for stats in result.tenants)
    assert shed > 0


def test_class_stats_structure():
    config = dataclasses.replace(BASE, tenants=6)
    result, _ = run_frontend(config)
    stats = result.class_stats()
    assert set(stats) == {"premium", "standard", "batch"}
    for name, cls_stats in stats.items():
        assert cls_stats.cls is tenant_class(
            {"premium": 0, "standard": 1, "batch": 2}[name])
        assert cls_stats.goodput == cls_stats.ok
        assert cls_stats.meets_slo in (True, False)
    assert (sum(s.offered for s in stats.values())
            == result.offered)


def test_shared_queue_mode_pools_capacity():
    config = dataclasses.replace(BASE, shared_queue=1)
    result, _ = run_frontend(config)
    assert result.totals()["ok"] == result.offered


def test_outcome_summary_contract():
    assert outcome_summary({}) == "all ok"
    assert outcome_summary(
        {"failed": 1, "shed": 2, "corrected": 3, "ok": 4}
    ) == "corrected=3, shed=2, failed=1"
    assert outcome_summary(
        {"ok": 4, "timeout": 1}, include_ok=True
    ) == "ok=4, timeout=1"
    with pytest.raises(ValueError, match="unknown outcome"):
        outcome_summary({"exploded": 1})
