"""Overload-family experiments on the service layer.

Three sweeps exercise the scenario family the figure reproductions
cannot express — what the served system does when offered load is not
a polite closed-loop batch:

* ``overload`` — a seeded saturation probe measures the subsystem's
  sustainable request rate, then the front end is offered multiples of
  it (0.5x to 10x).  Graceful degradation means goodput holds near the
  saturation plateau while the *excess* is shed or expired with
  bounded queues — never congestion collapse.
* ``burst_absorption`` — the three arrival processes (Poisson, bursty
  MMPP, diurnal) crossed with admission-queue depths at a fixed 0.8x
  load, showing how much queue is needed to absorb bursts into
  latency rather than shed.
* ``tenant_isolation`` — one misbehaving tenant offers many times its
  fair share; per-tenant bounded queues (the isolated arm) must keep
  every *compliant* class's goodput p99 within its SLO, while the
  shared-FIFO contrast arm shows what the isolation is buying.

All service behaviour is seeded-deterministic, so these sweeps run
byte-identically serial and under ``--jobs N`` through the fragment
merge, and their reports cache content-addressed like every other
experiment.
"""

from __future__ import annotations

import dataclasses
import typing

from repro.controller import PramSubsystem, SchedulerPolicy
from repro.controller.request import MemoryRequest, Op
from repro.experiments.runner import ExperimentConfig, format_table
from repro.faults.plan import FaultConfig
from repro.service.config import ARRIVAL_KINDS, ServiceConfig
from repro.service.frontend import ServiceFrontend, ServiceResult
from repro.service.summary import outcome_summary
from repro.sim import Simulator
from repro.telemetry.tracer import current_tracer

#: Offered-load multipliers over the sustainable rate, overload last.
OVERLOAD_MULTIPLIERS: typing.Tuple[float, ...] = (0.5, 1.0, 2.0, 5.0, 10.0)

#: Admission-queue depths crossed with the arrival kinds.
BURST_QUEUE_DEPTHS: typing.Tuple[int, ...] = (4, 16)

#: Graceful-degradation bar: goodput at 10x offered load must stay
#: within 20% of the saturation plateau.
COLLAPSE_THRESHOLD = 0.8

#: Requests in the open-loop saturation probe batch.
PROBE_REQUESTS = 96


def base_plan(config: ExperimentConfig) -> ServiceConfig:
    """The service plan the sweeps vary.

    ``--service`` overrides every knob; without it a representative
    default is used, with the traffic window scaled alongside the
    experiment footprint scale so ``--quick`` stays quick.
    """
    plan = config.service_config()
    if plan is not None:
        return plan
    duration = max(20_000.0, 200_000.0 * (config.scale / 0.25))
    return ServiceConfig(seed=config.seed, duration_ns=duration)


def probe_requests(plan: ServiceConfig) -> typing.List[MemoryRequest]:
    """A deterministic request batch shaped like the service traffic."""
    slots = max(1, plan.footprint_bytes // plan.request_bytes)
    size = plan.request_bytes
    requests = []
    for index in range(PROBE_REQUESTS):
        address = (index % slots) * size
        if index % 4 == 3:
            requests.append(MemoryRequest(Op.WRITE, address, size,
                                          data=b"\x5A" * size))
        else:
            requests.append(MemoryRequest(Op.READ, address, size))
    return requests


def sustainable_rate_rps(plan: ServiceConfig,
                         faults: typing.Optional[FaultConfig]) -> float:
    """Saturation probe: the subsystem's sustainable request rate.

    Submits one open-loop batch through ``run_stream`` (full overlap,
    no admission layer) and reads the achieved completion rate off the
    makespan — the plateau the overload sweep's goodput is judged
    against.  The probe is a simulated run of its own, so it records
    under a scope of its own, as does each sweep point below.
    """
    with current_tracer().scope("saturation-probe"):
        sim = Simulator()
        subsystem = PramSubsystem(sim, policy=SchedulerPolicy.FINAL,
                                  faults=faults)
        subsystem.run_stream(probe_requests(plan), mode="open")
    return PROBE_REQUESTS / sim.now * 1e9


def run_service(plan: ServiceConfig,
                faults: typing.Optional[FaultConfig]) -> ServiceResult:
    """One service run: fresh simulator, subsystem, and front end."""
    sim = Simulator()
    subsystem = PramSubsystem(sim, policy=SchedulerPolicy.FINAL,
                              faults=faults)
    return ServiceFrontend(sim, subsystem, plan).run()


def _brownout_fraction(result: ServiceResult) -> float:
    """Fraction of the run spent with any brownout shedding active."""
    total = sum(result.brownout_ns.values())
    if total <= 0.0:
        return 0.0
    shed = sum(ns for level, ns in result.brownout_ns.items() if level)
    return shed / total


# ----------------------------------------------------------------------
# overload
# ----------------------------------------------------------------------
def run_overload(config: ExperimentConfig = ExperimentConfig()
                 ) -> typing.Dict[str, typing.Any]:
    """Sweep offered load from half to ten times the sustainable rate."""
    plan = base_plan(config)
    faults = config.fault_config()
    rate_max = sustainable_rate_rps(plan, faults)
    rows = []
    for multiplier in OVERLOAD_MULTIPLIERS:
        swept = dataclasses.replace(plan,
                                    rate_rps=rate_max * multiplier)
        with current_tracer().scope(f"offered={multiplier:g}x"):
            result = run_service(swept, faults)
        rows.append({"multiplier": multiplier, "result": result})
    return {"plan": plan, "rate_max_rps": rate_max, "rows": rows}


def report_overload(result: typing.Dict[str, typing.Any]) -> str:
    """Text rendering of the overload sweep (the CI SLO table)."""
    headers = ["offered/max", "offered", "goodput", "goodput rps",
               "shed", "timeout", "failed", "p99 ns", "brownout"]
    table_rows = []
    for row in result["rows"]:
        service: ServiceResult = row["result"]
        totals = service.totals()
        merged = service.merged_sketch()
        p99 = merged.percentile(0.99) if merged.count else float("nan")
        table_rows.append([
            f"{row['multiplier']:g}x", service.offered, service.goodput,
            service.goodput_rps, int(totals["shed"]),
            int(totals["timeout"]), int(totals["failed"]), p99,
            f"{_brownout_fraction(service):.0%}"])
    table = format_table(headers, table_rows)
    saturated = max(
        (row for row in result["rows"] if row["multiplier"] >= 1.0),
        key=lambda row: row["result"].goodput_rps)
    overloaded = result["rows"][-1]["result"]
    plateau = saturated["result"].goodput_rps
    ratio = overloaded.goodput_rps / plateau if plateau > 0 else 0.0
    verdict = ("graceful degradation"
               if ratio >= COLLAPSE_THRESHOLD else "congestion collapse")
    class_lines = []
    for name, cls_stats in overloaded.class_stats().items():
        counts = {
            "ok": float(cls_stats.ok),
            "corrected": float(cls_stats.corrected),
            "degraded": float(cls_stats.degraded),
            "shed": float(cls_stats.shed),
            "timeout": float(cls_stats.timeout),
            "failed": float(cls_stats.failed),
        }
        class_lines.append(
            f"  {name:8s} offered={cls_stats.offered}  "
            f"{outcome_summary(counts, include_ok=True)}")
    summary = (
        f"service seed: {result['plan'].seed}, arrival: "
        f"{result['plan'].arrival}, sustainable rate: "
        f"{result['rate_max_rps']:.3g} rps\n"
        f"per-class outcomes at "
        f"{result['rows'][-1]['multiplier']:g}x offered load:\n"
        + "\n".join(class_lines) + "\n"
        f"goodput at {result['rows'][-1]['multiplier']:g}x = "
        f"{ratio:.0%} of saturation plateau "
        f"(threshold {COLLAPSE_THRESHOLD:.0%}): {verdict}")
    return f"Service: overload sweep\n{table}\n{summary}"


# ----------------------------------------------------------------------
# burst_absorption
# ----------------------------------------------------------------------
def run_burst(config: ExperimentConfig = ExperimentConfig()
              ) -> typing.Dict[str, typing.Any]:
    """Cross arrival processes with queue depths at 0.8x saturation."""
    plan = base_plan(config)
    faults = config.fault_config()
    rate_max = sustainable_rate_rps(plan, faults)
    rows = []
    for arrival in ARRIVAL_KINDS:
        for depth in BURST_QUEUE_DEPTHS:
            swept = dataclasses.replace(
                plan, arrival=arrival, queue_depth=depth,
                rate_rps=0.8 * rate_max)
            with current_tracer().scope(f"{arrival}:queue={depth}"):
                result = run_service(swept, faults)
            rows.append({"arrival": arrival, "queue_depth": depth,
                         "result": result})
    return {"plan": plan, "rate_max_rps": rate_max, "rows": rows}


def report_burst(result: typing.Dict[str, typing.Any]) -> str:
    """Text rendering of the burst-absorption grid."""
    headers = ["arrival", "queue", "offered", "goodput", "shed",
               "timeout", "p99 ns", "brownout"]
    table_rows = []
    for row in result["rows"]:
        service: ServiceResult = row["result"]
        totals = service.totals()
        merged = service.merged_sketch()
        p99 = merged.percentile(0.99) if merged.count else float("nan")
        table_rows.append([
            row["arrival"], row["queue_depth"], service.offered,
            service.goodput, int(totals["shed"]),
            int(totals["timeout"]), p99,
            f"{_brownout_fraction(service):.0%}"])
    table = format_table(headers, table_rows)
    summary = (
        f"service seed: {result['plan'].seed}, offered rate: 0.8x "
        f"sustainable ({result['rate_max_rps']:.3g} rps); deeper "
        f"queues absorb bursts into latency instead of shedding")
    return f"Service: burst absorption\n{table}\n{summary}"


# ----------------------------------------------------------------------
# tenant_isolation
# ----------------------------------------------------------------------
def run_isolation(config: ExperimentConfig = ExperimentConfig()
                  ) -> typing.Dict[str, typing.Any]:
    """One rogue tenant vs per-tenant queues and a shared FIFO."""
    plan = base_plan(config)
    faults = config.fault_config()
    rate_max = sustainable_rate_rps(plan, faults)
    rogue = dataclasses.replace(
        plan, rate_rps=0.6 * rate_max,
        rogue_tenants=max(1, plan.rogue_tenants))
    arms = []
    for name, shared in (("isolated", 0), ("shared", 1)):
        swept = dataclasses.replace(rogue, shared_queue=shared)
        with current_tracer().scope(name):
            result = run_service(swept, faults)
        arms.append({"arm": name, "result": result})
    return {"plan": plan, "rate_max_rps": rate_max, "arms": arms}


def report_isolation(result: typing.Dict[str, typing.Any]) -> str:
    """Text rendering of the isolation contrast."""
    headers = ["arm", "class", "offered", "goodput", "shed", "timeout",
               "p99 ns", "SLO ns", "within SLO"]
    table_rows = []
    isolated_ok = True
    for arm in result["arms"]:
        service: ServiceResult = arm["result"]
        compliant = service.class_stats(compliant_only=True)
        for name, cls_stats in compliant.items():
            p99 = cls_stats.p99_ns
            table_rows.append([
                arm["arm"], name, cls_stats.offered, cls_stats.goodput,
                cls_stats.shed, cls_stats.timeout,
                "-" if p99 is None else p99, cls_stats.slo_p99_ns,
                "yes" if cls_stats.meets_slo else "NO"])
            if arm["arm"] == "isolated" and not cls_stats.meets_slo:
                isolated_ok = False
    table = format_table(headers, table_rows)
    rogue_count = result["arms"][0]["result"].config.rogue_tenants
    factor = result["arms"][0]["result"].config.rogue_factor
    verdict = ("isolated: compliant classes hold their SLOs under the "
               "rogue tenant"
               if isolated_ok else
               "VIOLATED: a rogue tenant pushed a compliant class past "
               "its SLO despite per-tenant queues")
    summary = (
        f"service seed: {result['plan'].seed}; {rogue_count} rogue "
        f"tenant(s) at {factor:g}x fair share, compliant classes only\n"
        f"{verdict}")
    return f"Service: tenant isolation\n{table}\n{summary}"
