"""Command-line front end: ``python -m repro.analysis``.

Three modes:

* ``python -m repro.analysis [PATH ...]`` — run the SIM lint rules over
  files/directories (default: ``src/repro``).  Exits 1 if any
  violation is found.
* ``python -m repro.analysis --trace FILE`` — replay a JSON-lines
  command trace (see :func:`repro.analysis.conformance.save_trace`)
  through the three-phase protocol conformance checker.  Exits 1 if
  the trace is not conformant.
* ``python -m repro.analysis --shuffle EXPERIMENT[,...]`` — run the
  tie-break shuffle oracle over named experiments (quick config): each
  is executed once in FIFO order and ``--runs`` more times with seeded
  same-timestamp permutations; any byte-level divergence of the report
  fails the check.  ``--attest BENCH.json`` stamps the resulting
  ``tiebreak_independent`` certificate into an existing BENCH artifact.

Lint and conformance support ``--format json``; lint additionally
supports ``--format github`` (workflow error annotations) and
``--format sarif`` (SARIF 2.1.0 for code-scanning upload).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import typing

from repro.analysis.conformance import check_trace, load_trace
from repro.analysis.lint import LintViolation, lint_paths

#: Tool metadata stamped into SARIF output.
_SARIF_TOOL = {
    "name": "repro.analysis",
    "informationUri": "https://example.invalid/repro",
    "rules": [],
}


def _github_annotations(findings: typing.Sequence[LintViolation]) -> str:
    """GitHub workflow-command error annotations, one per finding."""
    lines = [
        f"::error file={f.path},line={f.line},title={f.code}::{f.message}"
        for f in findings
    ]
    lines.append(f"{len(findings)} violation(s)")
    return "\n".join(lines)


def _sarif_document(findings: typing.Sequence[LintViolation]
                    ) -> typing.Dict[str, typing.Any]:
    """Minimal SARIF 2.1.0 log for code-scanning ingestion."""
    rules = sorted({f.code for f in findings})
    driver = dict(_SARIF_TOOL)
    driver["rules"] = [{"id": code} for code in rules]
    results = [
        {
            "ruleId": f.code,
            "level": "error",
            "message": {"text": f.message},
            "locations": [{
                "physicalLocation": {
                    "artifactLocation": {"uri": f.path},
                    "region": {"startLine": max(1, f.line)},
                },
            }],
        }
        for f in findings
    ]
    return {
        "$schema": ("https://raw.githubusercontent.com/oasis-tcs/"
                    "sarif-spec/master/Schemata/sarif-schema-2.1.0.json"),
        "version": "2.1.0",
        "runs": [{"tool": {"driver": driver}, "results": results}],
    }


def _run_shuffle(subjects: typing.Sequence[str], runs: int, seed: int,
                 attest_path: str | None, output: str) -> int:
    """Shuffle-oracle mode: certify experiments, optionally stamping."""
    # Imported lazily: the lint/conformance paths must not pay for the
    # full experiments stack (engine, devices, workloads).
    from repro.analysis.racecheck import certify_tiebreak_independence
    from repro.controller.request import reset_request_ids
    from repro.experiments import cli as experiments_cli
    from repro.experiments.runner import ExperimentConfig
    from repro.telemetry.bench import stamp_provenance

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

    certificates = []
    for name in subjects:
        certificate = certify_tiebreak_independence(
            make_workload(name), subject=name, runs=runs, seed=seed)
        certificates.append(certificate)
    independent = all(cert.independent for cert in certificates)
    if output == "json":
        print(json.dumps([dataclasses.asdict(cert)
                          for cert in certificates], indent=2))
    else:
        for cert in certificates:
            print(cert.summary())
    if attest_path is not None:
        payload = {cert.subject: cert.to_provenance()
                   for cert in certificates}
        stamp_provenance(attest_path, "tiebreak_independent", payload)
        if output != "json":
            print(f"stamped tiebreak_independent into {attest_path}")
    return 0 if independent else 1


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
        "--trace", metavar="FILE", default=None,
        help="replay a JSON-lines command trace through the "
             "three-phase conformance checker instead of linting")
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
        "--attest", metavar="BENCH.json", default=None,
        help="stamp the --shuffle certificates into an existing "
             "BENCH artifact's provenance")
    parser.add_argument(
        "--format", choices=("text", "json", "github", "sarif"),
        default="text",
        help="output format (github/sarif: lint mode only)")
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
        return _run_shuffle(subjects, args.runs, args.seed, args.attest,
                            args.format)

    if args.trace is not None:
        violations = check_trace(load_trace(args.trace))
        if args.format == "json":
            payload = [
                {"reason": v.reason, "record": v.record.to_dict()}
                for v in violations
            ]
            print(json.dumps(payload, indent=2))
        else:
            for violation in violations:
                print(violation)
            print(f"{len(violations)} protocol violation(s) in "
                  f"{args.trace}")
        return 1 if violations else 0

    paths = args.paths or ["src/repro"]
    findings = lint_paths(paths)
    if args.format == "json":
        print(json.dumps([dataclasses.asdict(f) for f in findings],
                         indent=2))
    elif args.format == "github":
        print(_github_annotations(findings))
    elif args.format == "sarif":
        print(json.dumps(_sarif_document(findings), indent=2))
    else:
        for finding in findings:
            print(finding)
        print(f"{len(findings)} violation(s) in {', '.join(paths)}")
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
