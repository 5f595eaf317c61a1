"""Command-line experiment runner.

Usage::

    python -m repro.experiments list
    python -m repro.experiments run fig15 [--scale 0.25] [--quick]
    python -m repro.experiments run all --quick
    python -m repro.experiments all --jobs 4 --cache --results results
    python -m repro.experiments fig12 --observe /tmp/fig12

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

``--observe DIR`` records the run on simulated time and writes what it
saw to ``DIR``: a Perfetto/Chrome trace (``trace.json``, load it at
https://ui.perfetto.dev), a JSON-lines span log for the
``repro.analysis`` conformance checker (``spans.jsonl``), the metrics
summary table (``metrics.txt``), queue depths and occupancies sampled
into 1 µs windows (``timeseries.json``, view with ``python -m
repro.telemetry watch``), a latency-attribution and utilization profile
per experiment (``profile.txt``) and all of it as one self-contained
HTML page (``dashboard.html``).
``--hostprof OUT`` attributes *host* wall-clock to (component, process,
phase, event-kind) buckets at event-dispatch granularity and exports a
speedscope JSON flamegraph to OUT (load it at https://speedscope.app or
view it with ``python -m repro.telemetry flame OUT``).  It is a switch
of its own because recording inflates the host time it measures, and
it cannot be combined with ``--cache``: host time is measured in the
run that reports it.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import math
import os
import pathlib
import sys
import types
import typing

from repro.experiments import parallel, runner
from repro.sim.hostprof import use_hostprof
from repro.sim.stats import Counter

if typing.TYPE_CHECKING:  # pragma: no cover - typing-only imports
    from repro.telemetry.dashboard import ExperimentProfile
    from repro.telemetry.hostprof import HostProfiler
    from repro.telemetry.session import Telemetry


def _module(name: str) -> types.ModuleType:
    """``repro.experiments.<name>``, imported the first time it is used."""
    return importlib.import_module(f"repro.experiments.{name}")


def _lazy(module: str,
          run: typing.Callable[[types.ModuleType, runner.ExperimentConfig],
                               str]
          ) -> typing.Callable[[runner.ExperimentConfig], str]:
    """``run(module, config)``, importing ``module`` when first called."""
    return lambda config: run(_module(module), config)


#: Experiments that are views over cells other experiments may share
#: (the system matrix, fig13's replays): id -> (module, arguments).
#: The module declares the cells, ``cells(config, *arguments)``, and
#: renders their results, ``report(view(config, results, *arguments))``.
#: Every other experiment is one ``experiment/<name>`` cell whose
#: payload is its report.
_VIEWS: typing.Dict[str, typing.Tuple[str, typing.Tuple[str, ...]]] = {
    "fig01": ("fig01_motivation", ()),
    "fig07": ("fig07_firmware", ()),
    "fig13": ("fig13_schedulers", ()),
    "fig15": ("fig15_bandwidth", ()),
    "fig16": ("fig16_exec_time", ()),
    "fig17": ("fig17_energy", ()),
    "fig18": ("fig18_19_ipc", ("gemver",)),
    "fig19": ("fig18_19_ipc", ("doitg",)),
}


def run_view(name: str, config: runner.ExperimentConfig) -> str:
    """View experiment ``name``'s report, its cells run in-process."""
    return render(name, config, parallel.cell_results(
        experiment_cells(name, config), config))


#: name -> (description, callable(config) -> report string); an
#: experiment's module is imported when the experiment first runs.
EXPERIMENTS: typing.Dict[str, typing.Tuple[str, typing.Callable]] = {
    "tables": ("Tables I-III: configuration parameters",
               _lazy("tables", lambda module, config: module.report())),
    "fig01": ("Figure 1: conventional vs ideal (perf/energy)",
              lambda config: run_view("fig01", config)),
    "fig07": ("Figure 7: firmware vs oracle controller",
              lambda config: run_view("fig07", config)),
    "fig12": ("Figure 12: interleaving timing overlap",
              _lazy("fig12_interleaving_timing",
                    lambda module, config: module.report(module.run()))),
    "fig13": ("Figure 13: the four subsystem schedulers",
              lambda config: run_view("fig13", config)),
    "fig15": ("Figure 15: normalized throughput, ten systems",
              lambda config: run_view("fig15", config)),
    "fig16": ("Figure 16: execution-time decomposition",
              lambda config: run_view("fig16", config)),
    "fig17": ("Figure 17: energy decomposition",
              lambda config: run_view("fig17", config)),
    "fig18": ("Figure 18: IPC time series, gemver",
              lambda config: run_view("fig18", config)),
    "fig19": ("Figure 19: IPC time series, doitg",
              lambda config: run_view("fig19", config)),
    "fig20": ("Figure 20: power/energy capture, gemver",
              _lazy("fig20_21_power", lambda module, config: module.report(
                  module.run_figure20(config)))),
    "fig21": ("Figure 21: power/energy capture, doitg",
              _lazy("fig20_21_power", lambda module, config: module.report(
                  module.run_figure21(config)))),
    "endurance": ("Reliability: bandwidth + error rate vs wear "
                  "(endurance sweep)",
                  _lazy("reliability", lambda module, config: module.report(
                      module.run(config)))),
    "overload": (
        "Service: goodput under 0.5x-10x offered load (graceful degradation)",
        _lazy("service_sweeps", lambda module, config: module.report_overload(
            module.run_overload(config)))),
    "burst_absorption": (
        "Service: arrival processes x queue depths (burst absorption)",
        _lazy("service_sweeps", lambda module, config: module.report_burst(
            module.run_burst(config)))),
    "tenant_isolation": (
        "Service: rogue tenant vs per-tenant admission queues "
        "(SLO isolation)",
        _lazy("service_sweeps", lambda module, config: module.report_isolation(
            module.run_isolation(config)))),
}


def run_alone(config: runner.ExperimentConfig, name: str) -> str:
    """The ``experiment/<name>`` cell (module-level, so it pickles)."""
    return EXPERIMENTS[name][1](config)


def experiment_cells(name: str, config: runner.ExperimentConfig
                     ) -> typing.List[runner.Cell]:
    """The cells experiment ``name`` declares, in order."""
    if name in _VIEWS:
        module, arguments = _VIEWS[name]
        return _module(module).cells(config, *arguments)
    return [runner.Cell(f"experiment/{name}", run_alone, (name,))]


def render(name: str, config: runner.ExperimentConfig,
           results: typing.Mapping[str, typing.Any]) -> str:
    """Experiment ``name``'s report, a pure view of its cell results."""
    if name in _VIEWS:
        module, arguments = _VIEWS[name]
        owner = _module(module)
        return owner.report(owner.view(config, results, *arguments))
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
    run_parser.add_argument("--observe", metavar="DIR", default=None,
                            help="record the run on simulated time and "
                                 "write trace.json, spans.jsonl, "
                                 "metrics.txt, timeseries.json, "
                                 "profile.txt and dashboard.html to DIR")
    run_parser.add_argument("--hostprof", metavar="OUT", default=None,
                            help="profile host wall-clock per (component, "
                                 "process, phase, event-kind) bucket and "
                                 "export a speedscope JSON flamegraph to "
                                 "OUT; view with 'python -m "
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
    an existing non-directory, and the host profile's parent must exist.
    """
    for flag, path in (("--results", args.results), ("--cache", args.cache),
                       ("--observe", args.observe)):
        if (path is not None and os.path.exists(path)
                and not os.path.isdir(path)):
            return f"{flag} {path}: exists and is not a directory"
    if args.hostprof is not None:
        if os.path.isdir(args.hostprof):
            return f"--hostprof {args.hostprof}: is a directory"
        parent = os.path.dirname(args.hostprof) or "."
        if not os.path.isdir(parent):
            return f"--hostprof {args.hostprof}: no directory {parent}"
    return None


#: The shared counter every profile's attribution invariant checks.
OVERLAP_COUNTER = "sched.interleave.overlap_ns"


def experiment_profile(name: str, cells: typing.Sequence[runner.Cell],
                       run: parallel.CellRun) -> ExperimentProfile:
    """``name``'s profile: the spans of the cells it declares, wherever
    they were recorded, checked against their overlap counters."""
    from repro.telemetry.dashboard import build_profile

    keys = [cell.key for cell in cells]
    registries = [run.metrics[key] for key in keys]
    counters = [registry.get(OVERLAP_COUNTER) for registry in registries
                if registry is not None]
    return build_profile(
        name, [span for key in keys for span in run.spans[key]],
        overlap_total_ns=sum(
            counter.value if isinstance(counter, Counter) else 0.0
            for counter in counters))


def write_observation(directory: str, telemetry: Telemetry,
                      profiles: typing.Sequence[ExperimentProfile],
                      hostprof: HostProfiler | None) -> None:
    """Every artifact of an observed run, into ``directory``."""
    from repro.telemetry.dashboard import render_html, render_text

    path = pathlib.Path(directory)
    path.mkdir(parents=True, exist_ok=True)
    telemetry.write_trace(str(path / "trace.json"))
    telemetry.write_spanlog(str(path / "spans.jsonl"))
    (path / "metrics.txt").write_text(telemetry.summary() + "\n",
                                      encoding="utf-8")
    telemetry.write_timeseries(str(path / "timeseries.json"))
    (path / "profile.txt").write_text(
        "".join(render_text(profile) + "\n\n" for profile in profiles),
        encoding="utf-8")
    (path / "dashboard.html").write_text(render_html(
        profiles, timeseries=telemetry.timeseries_document(),
        hostprof=hostprof.to_payload() if hostprof is not None else None),
        encoding="utf-8")


def main(argv: typing.Sequence[str] | None = None) -> int:
    """Entry point; returns a process exit code."""
    if argv is None:
        argv = sys.argv[1:]
    args = build_parser().parse_args(normalize_argv(argv))
    if args.command == "list":
        for name, (description, _) in EXPERIMENTS.items():
            print(f"{name:8s} {description}")
        return 0
    # Each chosen experiment runs, prints and is written once, in the
    # order it is first named.
    chosen = (list(EXPERIMENTS) if args.experiment == "all"
              else list(dict.fromkeys(
                  name for name in args.experiment.split(",") if name)))
    if not chosen:
        print(f"no experiment named in {args.experiment!r}; try 'list'",
              file=sys.stderr)
        return 2
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
    if args.hostprof is not None and args.cache is not None:
        print("--hostprof cannot be combined with --cache: host time must "
              "be measured in the run that reports it", file=sys.stderr)
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
    telemetry = None
    if args.observe is not None:
        from repro.telemetry.session import Telemetry

        telemetry = Telemetry()
    # The profiler is both collector and ambient provider: each cell is
    # profiled by one of its own, folded into this instance.
    hostprof = None
    if args.hostprof is not None:
        from repro.telemetry.hostprof import HostProfiler

        hostprof = HostProfiler()
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
    if args.results is not None:
        for name in chosen:
            parallel.write_result(
                args.results, parallel.RESULT_NAMES.get(name, name),
                reports[name], config)
        print(f"reports written to {args.results}")
    if telemetry is not None:
        write_observation(
            args.observe, telemetry,
            [experiment_profile(name, plan[name], run) for name in chosen],
            hostprof)
        print(f"observation written to {args.observe}")
    if hostprof is not None:
        from repro.telemetry.hostprof import render_summary, write_speedscope

        write_speedscope(hostprof, args.hostprof)
        print(f"host profile (speedscope) written to {args.hostprof}")
        print(render_summary(hostprof))
    return 0


if __name__ == "__main__":
    sys.exit(main())
