"""CLI: validate telemetry artifacts and compare benchmark trajectories.

``python -m repro.telemetry validate TRACE [--spanlog FILE]`` checks a
Perfetto JSON export against the trace-event schema (and optionally a
span log's line structure); exit status 0 means valid.  CI runs this on
the trace captured from a real experiment.

``python -m repro.telemetry compare BASELINE.json CANDIDATE.json``
diffs two ``BENCH_*.json`` reports metric by metric and exits 1 when
any metric moved in its bad direction beyond ``--threshold``.  CI runs
this as a **blocking** gate against ``benchmarks/BENCH_baseline.json``.
BENCH metrics are simulated, so a move means the model changed, on any
host; the text table is the one output format.

``python -m repro.telemetry watch RESULTS.json`` renders an exported
time-series document (``timeseries.json`` from ``--observe DIR`` on the
experiments CLI) as terminal sparklines plus a latency-sketch quantile
table; invalid documents exit 1.

``python -m repro.telemetry flame PROFILE.json`` renders a speedscope
host-profile export (``--hostprof`` on the experiments CLI) as a
terminal top-N bucket view; the document is schema-validated first,
so CI can use this as the flamegraph artifact's validity gate.

``watch`` and ``flame`` auto-detect dumb/non-UTF-8 terminals and fall
back to ASCII glyphs; ``--ascii`` forces the fallback.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import typing

from repro.telemetry.bench import (
    DEFAULT_THRESHOLD,
    compare as compare_bench,
    load_bench,
    provenance_conflicts,
    render_compare,
)
from repro.telemetry.export import validate_perfetto, validate_spanlog
from repro.telemetry.hostprof import (
    load_speedscope,
    render_flame,
    validate_speedscope,
)
from repro.telemetry.timeseries import (
    load_timeseries,
    render_watch,
    supports_unicode,
    validate_timeseries,
)

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.telemetry",
        description="Validate telemetry exports.")
    sub = parser.add_subparsers(dest="command", required=True)
    validate = sub.add_parser(
        "validate", help="check a Perfetto trace (and optional span log)")
    validate.add_argument("trace", help="Perfetto JSON file to validate")
    validate.add_argument("--spanlog", default=None,
                          help="also validate a JSON-lines span log")
    compare = sub.add_parser(
        "compare",
        help="diff two BENCH_*.json reports; exit 1 on regressions")
    compare.add_argument("baseline", help="baseline BENCH_*.json")
    compare.add_argument("candidate", help="candidate BENCH_*.json")
    compare.add_argument(
        "--threshold", type=float, default=DEFAULT_THRESHOLD,
        help="relative change flagged as a regression "
             f"(default {DEFAULT_THRESHOLD:.0%})")
    watch = sub.add_parser(
        "watch",
        help="render an exported time-series document in the terminal")
    watch.add_argument("results",
                       help="timeseries.json written by --observe")
    watch.add_argument("--width", type=int, default=60,
                       help="sparkline width in cells (default 60)")
    watch.add_argument("--heat", action="store_true",
                       help="density shading instead of sparklines")
    watch.add_argument("--ascii", action="store_true", dest="force_ascii",
                       help="force ASCII glyphs (auto-detected for "
                            "dumb/non-UTF-8 terminals)")
    flame = sub.add_parser(
        "flame",
        help="render a speedscope host profile as a terminal top-N view")
    flame.add_argument("profile",
                       help="speedscope JSON from --hostprof")
    flame.add_argument("--top", type=int, default=20,
                       help="number of buckets to show (default 20)")
    flame.add_argument("--width", type=int, default=40,
                       help="bar width in cells (default 40)")
    flame.add_argument("--ascii", action="store_true", dest="force_ascii",
                       help="force ASCII glyphs (auto-detected for "
                            "dumb/non-UTF-8 terminals)")
    return parser


def _use_ascii(args: argparse.Namespace) -> bool:
    return bool(args.force_ascii) or not supports_unicode()


def _run_watch(args: argparse.Namespace) -> int:
    try:
        document = load_timeseries(args.results)
    except (OSError, json.JSONDecodeError, ValueError) as error:
        print(f"unreadable time-series document: {error}", file=sys.stderr)
        return 1
    problems = validate_timeseries(document)
    if problems:
        for problem in problems:
            print(f"{args.results}: {problem}", file=sys.stderr)
        return 1
    try:
        print(render_watch(document, width=args.width, heat=args.heat,
                           ascii_=_use_ascii(args)))
    except BrokenPipeError:
        # Piped into `head` and the reader closed early; exit quietly
        # (redirect stdout so the interpreter's exit flush stays calm).
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return 0


def _run_flame(args: argparse.Namespace) -> int:
    try:
        document = load_speedscope(args.profile)
    except (OSError, json.JSONDecodeError, ValueError) as error:
        print(f"unreadable speedscope profile: {error}", file=sys.stderr)
        return 1
    problems = validate_speedscope(document)
    if problems:
        for problem in problems:
            print(f"{args.profile}: {problem}", file=sys.stderr)
        return 1
    try:
        print(render_flame(document, top=args.top, width=args.width,
                           ascii_=_use_ascii(args)))
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return 0


def _run_compare(args: argparse.Namespace) -> int:
    try:
        baseline = load_bench(args.baseline)
        candidate = load_bench(args.candidate)
    except (OSError, json.JSONDecodeError, ValueError) as error:
        print(f"unreadable bench report: {error}", file=sys.stderr)
        return 2
    conflicts = provenance_conflicts(baseline, candidate)
    if conflicts:
        print("reports measured with different configurations; "
              "refusing to compare:", file=sys.stderr)
        for conflict in conflicts:
            print(f"  {conflict}", file=sys.stderr)
        return 2
    result = compare_bench(baseline, candidate,
                           threshold=args.threshold)
    base_sha = baseline.provenance.get("git_sha", "?")
    cand_sha = candidate.provenance.get("git_sha", "?")
    print(f"baseline {base_sha} -> candidate {cand_sha}")
    print(render_compare(result))
    return 1 if result.regressions else 0


def main(argv: typing.Optional[typing.Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "compare":
        return _run_compare(args)
    if args.command == "watch":
        return _run_watch(args)
    if args.command == "flame":
        return _run_flame(args)
    problems: typing.List[str] = []
    try:
        with open(args.trace, encoding="utf-8") as handle:
            document = json.load(handle)
    except (OSError, json.JSONDecodeError) as error:
        problems.append(f"{args.trace}: unreadable trace: {error}")
    else:
        problems.extend(
            f"{args.trace}: {problem}"
            for problem in validate_perfetto(document))
        events = document.get("traceEvents", [])
        if isinstance(events, list):
            print(f"{args.trace}: {len(events)} trace events")
    if args.spanlog is not None:
        problems.extend(validate_spanlog(args.spanlog))
    for problem in problems:
        print(problem, file=sys.stderr)
    if problems:
        return 1
    print("telemetry artifacts valid")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
