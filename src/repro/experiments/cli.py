"""Command-line experiment runner.

Usage::

    python -m repro.experiments list
    python -m repro.experiments run fig15 [--scale 0.25] [--quick]
    python -m repro.experiments run all --quick
    python -m repro.experiments all --jobs 4 --cache --results results
    python -m repro.experiments fig12 --trace /tmp/fig12.json --metrics

The ``run`` keyword may be omitted: a first argument that is not a
subcommand is treated as an experiment id (or a comma-separated list,
``fig12,fig13``).  Each experiment prints the same text report the
benchmarks write to ``results/``; ``--results DIR`` also writes the
reports there under the benchmarks' provenance header.

The union of the chosen experiments' cells is simulated once (so
``fig15,fig16,fig17`` share one system matrix): ``--jobs N`` shards
the cells across worker processes, ``--cache [DIR]`` replays unchanged
ones from the result cache (default ``.repro-cache/``), and the output
is identical to a serial run either way.

Telemetry flags (``--trace``, ``--spans``, ``--metrics``) install an
ambient tracer/metrics registry around the chosen experiments and
export the capture afterwards: a Perfetto/Chrome JSON trace (load it
at https://ui.perfetto.dev), a JSON-lines span log consumable by the
``repro.analysis`` conformance checker, and a metrics summary table.
``--timeseries OUT [--window NS]`` additionally samples queue depths
and occupancies into fixed windows of simulated time and exports them
(view with ``python -m repro.telemetry watch OUT``).
``--hostprof OUT`` attributes *host* wall-clock to (component, process,
phase, event-kind) buckets at event-dispatch granularity and exports a
flamegraph: speedscope JSON by default (load at https://speedscope.app
or view with ``python -m repro.telemetry flame OUT``), collapsed-stack
text when OUT ends in ``.collapsed``/``.txt``.
"""

from __future__ import annotations

import argparse
import contextlib
import math
import os
import sys
import typing

from repro.experiments import parallel, runner
from repro.sim.hostprof import use_hostprof
from repro.telemetry import (
    DEFAULT_WINDOW_NS,
    ExperimentProfile,
    HostProfiler,
    SamplingConfig,
    Telemetry,
    build_profile,
    render_html,
    render_summary,
    render_text,
    write_hostprof,
)
from repro.experiments import (
    fig01_motivation,
    fig07_firmware,
    fig12_interleaving_timing,
    fig13_schedulers,
    fig15_bandwidth,
    fig16_exec_time,
    fig17_energy,
    fig18_19_ipc,
    fig20_21_power,
    reliability,
    service_sweeps,
    tables,
)

#: name -> (description, callable(config) -> report string)
EXPERIMENTS: typing.Dict[str, typing.Tuple[str, typing.Callable]] = {
    "tables": ("Tables I-III: configuration parameters",
               lambda config: tables.report()),
    "fig01": ("Figure 1: conventional vs ideal (perf/energy)",
              lambda config: fig01_motivation.report(
                  fig01_motivation.run(config))),
    "fig07": ("Figure 7: firmware vs oracle controller",
              lambda config: fig07_firmware.report(
                  fig07_firmware.run(config))),
    "fig12": ("Figure 12: interleaving timing overlap",
              lambda config: fig12_interleaving_timing.report(
                  fig12_interleaving_timing.run())),
    "fig13": ("Figure 13: the four subsystem schedulers",
              lambda config: fig13_schedulers.report(
                  fig13_schedulers.run(config))),
    "fig15": ("Figure 15: normalized throughput, ten systems",
              lambda config: fig15_bandwidth.report(
                  fig15_bandwidth.run(config))),
    "fig16": ("Figure 16: execution-time decomposition",
              lambda config: fig16_exec_time.report(
                  fig16_exec_time.run(config))),
    "fig17": ("Figure 17: energy decomposition",
              lambda config: fig17_energy.report(
                  fig17_energy.run(config))),
    "fig18": ("Figure 18: IPC time series, gemver",
              lambda config: fig18_19_ipc.report(
                  fig18_19_ipc.run_figure18(config))),
    "fig19": ("Figure 19: IPC time series, doitg",
              lambda config: fig18_19_ipc.report(
                  fig18_19_ipc.run_figure19(config))),
    "fig20": ("Figure 20: power/energy capture, gemver",
              lambda config: fig20_21_power.report(
                  fig20_21_power.run_figure20(config))),
    "fig21": ("Figure 21: power/energy capture, doitg",
              lambda config: fig20_21_power.report(
                  fig20_21_power.run_figure21(config))),
    "endurance": ("Reliability: bandwidth + error rate vs wear "
                  "(endurance sweep)",
                  lambda config: reliability.report(
                      reliability.run(config))),
    "overload": ("Service: goodput under 0.5x-10x offered load "
                 "(graceful degradation)",
                 lambda config: service_sweeps.report_overload(
                     service_sweeps.run_overload(config))),
    "burst_absorption": ("Service: arrival processes x queue depths "
                         "(burst absorption)",
                         lambda config: service_sweeps.report_burst(
                             service_sweeps.run_burst(config))),
    "tenant_isolation": ("Service: rogue tenant vs per-tenant "
                         "admission queues (SLO isolation)",
                         lambda config: service_sweeps.report_isolation(
                             service_sweeps.run_isolation(config))),
}

#: Experiments that are views over cells other experiments may share
#: (the system matrix, fig13's replays); every other experiment is one
#: ``experiment/<name>`` cell whose payload is its report.
_VIEWS: typing.Dict[str, typing.Any] = {
    "fig01": fig01_motivation, "fig07": fig07_firmware,
    "fig13": fig13_schedulers, "fig15": fig15_bandwidth,
    "fig16": fig16_exec_time, "fig17": fig17_energy}


def run_alone(config: runner.ExperimentConfig, name: str) -> str:
    """The ``experiment/<name>`` cell (module-level, so it pickles)."""
    return EXPERIMENTS[name][1](config)


def experiment_cells(name: str, config: runner.ExperimentConfig
                     ) -> typing.List[runner.Cell]:
    """The cells experiment ``name`` declares, in order."""
    if name in _VIEWS:
        return _VIEWS[name].cells(config)
    return [runner.Cell(f"experiment/{name}", run_alone, (name,))]


def render(name: str, config: runner.ExperimentConfig,
           results: typing.Mapping[str, typing.Any]) -> str:
    """Experiment ``name``'s report, a pure view of its cell results."""
    if name in _VIEWS:
        module = _VIEWS[name]
        return module.report(module.view(config, results))
    return results[f"experiment/{name}"]


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument schema."""
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Regenerate the DRAM-less paper's tables and figures.")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("list", help="list available experiments")
    run_parser = sub.add_parser("run", help="run one experiment (or 'all')")
    run_parser.add_argument("experiment",
                            help="experiment id (see 'list') or 'all'")
    run_parser.add_argument("--scale", type=float, default=0.25,
                            help="footprint scale factor (default 0.25)")
    run_parser.add_argument("--seed", type=int, default=1,
                            help="trace seed (default 1)")
    run_parser.add_argument("--quick", action="store_true",
                            help="tiny two-workload configuration")
    run_parser.add_argument("--faults", metavar="PLAN", default=None,
                            help="seeded fault-injection plan as "
                                 "key=value,... (e.g. 'seed=7,"
                                 "read_flip=0.001,program_fail=0.01,"
                                 "endurance=64'); default: fault-free")
    run_parser.add_argument("--service", metavar="PLAN", default=None,
                            help="service-layer traffic plan for the "
                                 "overload/burst_absorption/"
                                 "tenant_isolation experiments as "
                                 "key=value,... (e.g. 'seed=3,"
                                 "tenants=12,arrival=mmpp,rate=5e6,"
                                 "deadline=40000'); default: built-in "
                                 "plan")
    run_parser.add_argument("--jobs", type=int, default=1, metavar="N",
                            help="shard the chosen experiments' cells "
                                 "across N worker processes (default 1: "
                                 "serial)")
    run_parser.add_argument("--cache", nargs="?", metavar="DIR",
                            default=None, const=parallel.DEFAULT_CACHE_DIR,
                            help="replay unchanged cells from the "
                                 "content-addressed result cache "
                                 f"(default dir {parallel.DEFAULT_CACHE_DIR})")
    run_parser.add_argument("--results", metavar="DIR", default=None,
                            help="also write each report to DIR/<name>.txt "
                                 "under a provenance header")
    run_parser.add_argument("--trace", metavar="OUT.json", default=None,
                            help="write a Perfetto/Chrome trace of the "
                                 "run to this file")
    run_parser.add_argument("--spans", metavar="OUT.jsonl", default=None,
                            help="write a JSON-lines span log of the run "
                                 "to this file")
    run_parser.add_argument("--metrics", action="store_true",
                            help="print the metrics summary table after "
                                 "the reports")
    run_parser.add_argument("--timeseries", metavar="OUT", default=None,
                            help="sample windowed time series during the "
                                 "run and export them to OUT (.json, or "
                                 ".csv for long-format rows); view with "
                                 "'python -m repro.telemetry watch OUT'")
    run_parser.add_argument("--window", type=float, metavar="NS",
                            default=DEFAULT_WINDOW_NS,
                            help="sampling window width in simulated ns "
                                 f"(default {DEFAULT_WINDOW_NS:g})")
    run_parser.add_argument("--profile", action="store_true",
                            help="print a latency-attribution and "
                                 "utilization profile per experiment")
    run_parser.add_argument("--report", metavar="OUT.html", default=None,
                            help="write a self-contained HTML profile "
                                 "dashboard to this file")
    run_parser.add_argument("--hostprof", metavar="OUT", default=None,
                            help="profile host wall-clock per (component, "
                                 "process, phase, event-kind) bucket and "
                                 "export a flamegraph to OUT (speedscope "
                                 "JSON; .collapsed/.txt for collapsed "
                                 "stacks); view with 'python -m "
                                 "repro.telemetry flame OUT'")
    return parser


#: argv[0] values that are real subcommands; anything else is treated
#: as an experiment id with an implicit leading "run".
_SUBCOMMANDS = frozenset({"list", "run"})


def normalize_argv(
        argv: typing.Sequence[str]) -> typing.List[str]:
    """Insert the implicit ``run`` subcommand when it was omitted."""
    argv = list(argv)
    if argv and not argv[0].startswith("-") and argv[0] not in _SUBCOMMANDS:
        argv.insert(0, "run")
    return argv


def config_from_args(args: argparse.Namespace) -> runner.ExperimentConfig:
    """Translate CLI flags into an ExperimentConfig."""
    service = getattr(args, "service", None)
    if args.quick:
        return runner.ExperimentConfig(
            scale=0.05, seed=args.seed, agents=3,
            workloads=("gemver", "doitg"), faults=args.faults,
            service=service)
    return runner.ExperimentConfig(scale=args.scale, seed=args.seed,
                                   faults=args.faults, service=service)


def destination_error(args: argparse.Namespace) -> str | None:
    """Why an output flag names a place the run cannot write, if so.

    Checked before any cell runs, so a typo fails in milliseconds
    rather than after the whole run: the directory flags must not name
    an existing non-directory, and each file's parent must exist.
    """
    for flag, path in (("--results", args.results), ("--cache", args.cache)):
        if (path is not None and os.path.exists(path)
                and not os.path.isdir(path)):
            return f"{flag} {path}: exists and is not a directory"
    for flag, path in (("--trace", args.trace), ("--spans", args.spans),
                       ("--timeseries", args.timeseries),
                       ("--report", args.report),
                       ("--hostprof", args.hostprof)):
        if path is None:
            continue
        if os.path.isdir(path):
            return f"{flag} {path}: is a directory"
        parent = os.path.dirname(path) or "."
        if not os.path.isdir(parent):
            return f"{flag} {path}: no directory {parent}"
    return None


#: The shared counter every profile's attribution invariant checks.
OVERLAP_COUNTER = "sched.interleave.overlap_ns"


def experiment_profile(name: str, cells: typing.Sequence[runner.Cell],
                       run: parallel.CellRun) -> ExperimentProfile:
    """``name``'s profile: the spans of the cells it declares, wherever
    they were recorded, checked against their overlap counters."""
    keys = [cell.key for cell in cells]
    fragments = [run.metrics[key] for key in keys]
    return build_profile(
        name, [span for key in keys for span in run.spans[key]],
        overlap_total_ns=sum(fragment.counter(OVERLAP_COUNTER)
                             for fragment in fragments
                             if fragment is not None))


def main(argv: typing.Sequence[str] | None = None) -> int:
    """Entry point; returns a process exit code."""
    if argv is None:
        argv = sys.argv[1:]
    args = build_parser().parse_args(normalize_argv(argv))
    if args.command == "list":
        for name, (description, _) in EXPERIMENTS.items():
            print(f"{name:8s} {description}")
        return 0
    chosen = (list(EXPERIMENTS) if args.experiment == "all"
              else [name for name in args.experiment.split(",") if name])
    unknown = [name for name in chosen if name not in EXPERIMENTS]
    if unknown:
        print(f"unknown experiment(s): {', '.join(unknown)}; "
              f"try 'list'", file=sys.stderr)
        return 2
    if args.jobs < 1:
        print(f"--jobs must be >= 1, got {args.jobs}", file=sys.stderr)
        return 2
    if not (math.isfinite(args.scale) and args.scale > 0):
        print(f"--scale must be finite and > 0, got {args.scale}",
              file=sys.stderr)
        return 2
    problem = destination_error(args)
    if problem is not None:
        print(problem, file=sys.stderr)
        return 2
    config = config_from_args(args)
    if config.faults is not None:
        # Validate the plan up front so a typo fails in milliseconds,
        # not after the first experiment has simulated for minutes.
        try:
            config.fault_config()
        except ValueError as exc:
            print(f"invalid --faults plan: {exc}", file=sys.stderr)
            return 2
    if config.service is not None:
        # Same up-front validation as --faults: a bad arrival rate or
        # deadline names its field now, not minutes into a sweep.
        try:
            config.service_config()
        except ValueError as exc:
            print(f"invalid --service plan: {exc}", file=sys.stderr)
            return 2
    try:
        sampling = (SamplingConfig(window_ns=args.window)
                    if args.timeseries is not None else None)
    except ValueError as exc:
        print(f"invalid --window: {exc}", file=sys.stderr)
        return 2
    # --metrics alone keeps the null-tracer fast path (record_spans
    # False leaves the ambient tracer null); any span consumer turns
    # recording on.  --timeseries needs the metrics registry (samples
    # land in registry series), so it implies telemetry too.
    want_spans = bool(args.trace or args.spans or args.profile
                      or args.report)
    telemetry = (Telemetry(record_spans=want_spans, timeseries=sampling)
                 if want_spans or args.metrics or sampling is not None
                 else None)
    # The profiler is both collector and ambient provider: each cell
    # captures a fragment and the runner folds it into this instance.
    hostprof = HostProfiler() if args.hostprof is not None else None
    plan = {name: experiment_cells(name, config) for name in chosen}
    with contextlib.ExitStack() as stack:
        if hostprof is not None:
            stack.enter_context(use_hostprof(hostprof))
        if telemetry is not None:
            stack.enter_context(telemetry.activate())
            # The summary lists the counter the profiles check even when
            # no cell wrote to it.
            telemetry.metrics.counter(OVERLAP_COUNTER)
        run = parallel.run_cells(plan, config, jobs=args.jobs,
                                 cache_dir=args.cache)
    reports = {name: render(name, config, run.results) for name in chosen}
    for name in chosen:
        print(reports[name])
        print()
    profiles = ([experiment_profile(name, plan[name], run)
                 for name in chosen] if want_spans else [])
    if args.results is not None:
        for name in chosen:
            parallel.write_result(
                args.results, parallel.RESULT_NAMES.get(name, name),
                reports[name], config)
        print(f"reports written to {args.results}")
    if telemetry is not None:
        if args.trace:
            telemetry.write_trace(args.trace)
            print(f"perfetto trace written to {args.trace}")
        if args.spans:
            telemetry.write_spanlog(args.spans)
            print(f"span log written to {args.spans}")
        if args.timeseries:
            telemetry.write_timeseries(args.timeseries)
            print(f"time series written to {args.timeseries}")
        if args.profile:
            for profile in profiles:
                print(render_text(profile))
                print()
        if args.report:
            timeseries_doc = (telemetry.timeseries_document()
                              if sampling is not None else None)
            hostprof_doc = (hostprof.to_payload()
                            if hostprof is not None else None)
            with open(args.report, "w", encoding="utf-8") as handle:
                handle.write(render_html(profiles,
                                         timeseries=timeseries_doc,
                                         hostprof=hostprof_doc))
            print(f"profile dashboard written to {args.report}")
        if args.metrics:
            print("metrics summary")
            print(telemetry.summary())
    if hostprof is not None:
        kind = write_hostprof(hostprof, args.hostprof)
        print(f"host profile ({kind}) written to {args.hostprof}")
        print(render_summary(hostprof))
    return 0


if __name__ == "__main__":
    sys.exit(main())
