"""Command-line front end: ``python -m repro.analysis``.

Three modes:

* ``python -m repro.analysis [PATH ...]`` — run the SIM lint rules over
  files/directories (default: ``src/repro``).  Exits 1 if any
  violation is found.
* ``python -m repro.analysis --trace DIR/spans.jsonl`` — replay the
  ``command`` lines of a span log (``--observe DIR`` on the
  experiments CLI writes one) through the three-phase protocol
  conformance checker.  Exits 1 if the commands are not conformant,
  and 2 before any replay if the file cannot be read as a span log or
  holds no command to replay.
* ``python -m repro.analysis --shuffle EXPERIMENT[,...]`` — run the
  tie-break shuffle oracle over named experiments (quick config): each
  is executed once in FIFO order and ``--runs`` more times with seeded
  same-timestamp permutations; any byte-level divergence of the report
  fails the check.  CI runs it on fig12 and the tables, so its exit
  status is the record of their tie-break independence.

Lint output is plain text, or ``--format github`` for workflow error
annotations (CI's lint step).
"""

from __future__ import annotations

import argparse
import sys
import typing

from repro.analysis.conformance import check_trace
from repro.analysis.lint import LintViolation, lint_paths
from repro.telemetry.export import spanlog_commands, validate_spanlog


def _github_annotations(findings: typing.Sequence[LintViolation]) -> str:
    """GitHub workflow-command error annotations, one per finding."""
    lines = [
        f"::error file={f.path},line={f.line},title={f.code}::{f.message}"
        for f in findings
    ]
    lines.append(f"{len(findings)} violation(s)")
    return "\n".join(lines)


def _run_shuffle(subjects: typing.Sequence[str], runs: int,
                 seed: int) -> int:
    """Shuffle-oracle mode: certify each experiment, print the verdicts."""
    # Imported lazily: the lint/conformance paths must not pay for the
    # full experiments stack (engine, devices, workloads).
    from repro.analysis.racecheck import certify_tiebreak_independence
    from repro.controller.request import reset_request_ids
    from repro.experiments import cli as experiments_cli
    from repro.experiments.runner import ExperimentConfig

    unknown = [name for name in subjects
               if name not in experiments_cli.EXPERIMENTS]
    if unknown:
        known = ", ".join(sorted(experiments_cli.EXPERIMENTS))
        print(f"unknown experiment(s): {', '.join(unknown)} "
              f"(known: {known})", file=sys.stderr)
        return 2

    def make_workload(name: str) -> typing.Callable[[], str]:
        def workload() -> str:
            # Same reset the cell runner performs at every cell: request
            # ids restart so report text is position-independent.
            reset_request_ids()
            _, figure_fn = experiments_cli.EXPERIMENTS[name]
            config = ExperimentConfig(scale=0.05, seed=7, agents=3,
                                      workloads=("gemver", "doitg"))
            return figure_fn(config)
        return workload

    certificates = [
        certify_tiebreak_independence(
            make_workload(name), subject=name, runs=runs, seed=seed)
        for name in subjects]
    for cert in certificates:
        print(cert.summary())
    return 0 if all(cert.independent for cert in certificates) else 1


def _run_trace(path: str) -> int:
    """Replay mode: check a span log's commands, print the violations."""
    problems = validate_spanlog(path)
    records = [] if problems else spanlog_commands(path)
    if not problems and not records:
        problems = [f"{path}: no command lines to replay"]
    if problems:
        more = f" (and {len(problems) - 1} more)" if len(problems) > 1 else ""
        print(f"--trace: cannot replay {problems[0]}{more}", file=sys.stderr)
        return 2
    violations = check_trace(records)
    for violation in violations:
        print(violation)
    print(f"{len(violations)} protocol violation(s) in {len(records)} "
          f"command(s) replayed from {path}")
    return 1 if violations else 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="Simulator invariant checks: SIM lint rules, "
                    "LPDDR2-NVM protocol conformance, and the "
                    "tie-break shuffle oracle.",
    )
    parser.add_argument(
        "paths", nargs="*", default=None,
        help="files or directories to lint (default: src/repro)")
    parser.add_argument(
        "--trace", metavar="SPANLOG", default=None,
        help="replay the command lines of a span log (DIR/spans.jsonl "
             "from --observe DIR) through the three-phase conformance "
             "checker instead of linting")
    parser.add_argument(
        "--shuffle", metavar="EXPERIMENT[,...]", default=None,
        help="certify tie-break independence of named experiments "
             "(quick config) via seeded same-timestamp shuffles")
    parser.add_argument(
        "--runs", type=int, default=5,
        help="shuffled runs per experiment for --shuffle (default: 5)")
    parser.add_argument(
        "--seed", type=int, default=0,
        help="base shuffle seed for --shuffle (default: 0)")
    parser.add_argument(
        "--format", choices=("text", "github"), default="text",
        help="lint output format (github: workflow annotations)")
    return parser


def main(argv: typing.Sequence[str] | None = None) -> int:
    """Entry point; returns the process exit code."""
    args = _build_parser().parse_args(argv)

    if args.shuffle is not None:
        if args.runs < 1:
            print(f"--runs must be >= 1, got {args.runs}", file=sys.stderr)
            return 2
        subjects = [name.strip() for name in args.shuffle.split(",")
                    if name.strip()]
        return _run_shuffle(subjects, args.runs, args.seed)

    if args.trace is not None:
        return _run_trace(args.trace)

    paths = args.paths or ["src/repro"]
    findings = lint_paths(paths)
    if args.format == "github":
        print(_github_annotations(findings))
    else:
        for finding in findings:
            print(finding)
        print(f"{len(findings)} violation(s) in {', '.join(paths)}")
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
