"""Reproducibility of the service layer, serially and sharded.

Three layers of the guarantee:

* repeated in-process runs produce identical results (and the
  ``determinism`` marker diffs the kernel event traces of two runs);
* the CLI writes byte-identical reports serially and under
  ``--jobs 2`` for a fixed ``--service`` plan;
* the admission/dispatch path is *tie-break independent*: shuffling
  same-timestamp event order does not change any tenant's outcomes.
"""

import dataclasses
import typing

import pytest

from repro.analysis.racecheck import certify_tiebreak_independence
from repro.controller.request import MemoryRequest
from repro.experiments.cli import main
from repro.service import ServiceConfig, ServiceFrontend, ServiceResult
from repro.sim import Simulator

PLAN = ("seed=7,tenants=3,duration=30000,rate=8e5,queue=4,workers=2,"
        "deadline=20000")


class FixedLatencyBackend:
    """Deterministic stand-in subsystem for kernel-level replays."""

    fault_config = None

    def __init__(self, sim: Simulator, latency: float = 150.0) -> None:
        self.sim = sim
        self.latency = latency

    def submit(self, request: MemoryRequest) -> typing.Generator:
        yield self.sim.timeout(self.latency)

    def backpressure(self) -> float:
        return 0.0


def run_service(config: ServiceConfig) -> ServiceResult:
    sim = Simulator()
    return ServiceFrontend(sim, FixedLatencyBackend(sim), config).run()


def fingerprint(result: ServiceResult) -> typing.Dict:
    return {
        "totals": result.totals(),
        "elapsed": result.elapsed_ns,
        "brownout": result.brownout_ns,
        "per_tenant": [(s.tenant, s.offered, s.ok, s.shed, s.timeout,
                        s.failed, s.retries, s.sketch.count)
                       for s in result.tenants],
    }


@pytest.mark.determinism
def test_service_run_is_deterministic():
    # The plugin runs this twice and diffs the kernel event traces.
    run_service(ServiceConfig.parse(PLAN))


def test_repeated_runs_are_identical():
    config = ServiceConfig.parse(PLAN)
    assert fingerprint(run_service(config)) == fingerprint(
        run_service(config))


def test_overloaded_runs_are_identical():
    config = dataclasses.replace(ServiceConfig.parse(PLAN),
                                 rate_rps=8e6, deadline_ns=2_000.0)
    assert fingerprint(run_service(config)) == fingerprint(
        run_service(config))


def test_admission_path_is_tiebreak_independent():
    # Shuffling same-timestamp event order must not change outcomes:
    # workers are symmetric dispatch slots and accounting is keyed by
    # tenant, never by worker identity or wakeup order.
    config = dataclasses.replace(ServiceConfig.parse(PLAN),
                                 rate_rps=4e6, queue_depth=2)
    certificate = certify_tiebreak_independence(
        lambda: fingerprint(run_service(config)),
        subject="service admission queue",
        runs=4, seed=3)
    assert certificate.independent, certificate.summary()


@pytest.mark.determinism
def test_cli_service_results_serial_vs_sharded(tmp_path, monkeypatch,
                                              capsys):
    monkeypatch.setenv("REPRO_GIT_SHA", "0000test")
    monkeypatch.setenv("REPRO_TIMESTAMP", "2026-01-01T00:00:00")
    serial_dir = tmp_path / "serial"
    sharded_dir = tmp_path / "sharded"
    assert main(["overload", "--quick", "--service", PLAN,
                 "--results", str(serial_dir)]) == 0
    assert main(["overload", "--quick", "--service", PLAN, "--jobs", "2",
                 "--results", str(sharded_dir)]) == 0
    capsys.readouterr()
    name = "service_overload.txt"
    serial = (serial_dir / name).read_bytes()
    assert serial
    assert (sharded_dir / name).read_bytes() == serial


def test_cli_rejects_bad_service_plan(capsys):
    assert main(["overload", "--quick", "--service", "rate=-1"]) == 2
    err = capsys.readouterr().err
    assert "invalid --service plan" in err
    assert "rate_rps" in err
