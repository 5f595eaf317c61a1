"""Service sweeps publish their metrics once per front-end run."""

import dataclasses

from repro.experiments.cli import EXPERIMENTS
from repro.experiments.runner import QUICK
from repro.telemetry.metrics import MetricsRegistry, use_metrics

PLAN = ("seed=7,tenants=3,duration=30000,rate=8e5,queue=4,workers=2,"
        "deadline=20000")


def test_quick_sweep_under_a_registry():
    # A sweep runs the front end once per load point; each run must
    # get its own namespace instead of re-attaching the last run's
    # class sketches ("already registered").
    config = dataclasses.replace(QUICK, service=PLAN)
    registry = MetricsRegistry()
    with use_metrics(registry):
        report = EXPERIMENTS["overload"][1](config)
    assert "graceful degradation" in report or "collapse" in report
    assert registry.paths("service.sketch.*")
    assert registry.paths("service#2.sketch.*")
    assert registry.paths("service#2.requests.offered")
