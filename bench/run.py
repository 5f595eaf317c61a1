"""Run the host benchmark and print every metric.

Usage, from the repository root::

    python3 bench/run.py [--workload W] [--seed N] [--seconds S]
                         [--trace 0|1] [--out FILE]

Each workload runs alone, one after another: five set-up probes in
fresh interpreters (``setup_s`` is their median), then one worker
process for the timed and traced passes (:mod:`bench.worker`).  Times
are in reference seconds (:mod:`bench.calibration`).  No
``--jobs``, no result cache and no threads, so on a small host the
numbers measure the simulator and not the scheduler.

Every metric prints with its unit.  The last line is one JSON object
``{"correct", "attempted", "failed", "metrics"}`` whose metrics are
the end-to-end set with ``--trace 0`` and the per-layer set with
``--trace 1``.  The exit code is 1 when any cell failed a correctness
check (all metrics are still printed), and 2 without a result when
the benchmark itself could not run.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import statistics
import subprocess
import sys
import time
import typing

ROOT = pathlib.Path(__file__).resolve().parent.parent
if not __package__:
    sys.path.insert(0, str(ROOT))  # run as a script: make `bench` importable

from bench import WORKLOADS  # noqa: E402

SETUP_PROBES = 5
#: Host seconds one workload may take, probes and worker together.
WORKLOAD_LIMIT_S = 170.0


class HarnessError(Exception):
    """A probe or worker process failed, so there is no result."""


def _child(module: str, args: typing.Sequence[str], deadline: float) -> str:
    """Run ``python -m module args`` from the root; its standard output."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(ROOT)]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    command = [sys.executable, "-m", module, *args]
    try:
        done = subprocess.run(command, cwd=ROOT, env=env, text=True,
                              capture_output=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise HarnessError(f"{' '.join(command)}: timed out") from None
    if done.returncode != 0:
        raise HarnessError(f"{' '.join(command)}: exit {done.returncode}\n"
                           f"{done.stderr.strip()}")
    return done.stdout


def run_workload(workload: str, seed: int, seconds: int
                 ) -> typing.Dict[str, typing.Any]:
    """Probes plus worker for one workload: its full result document."""
    deadline = time.monotonic() + WORKLOAD_LIMIT_S
    setup = [float(_child("bench.probe", [workload, str(seed)], deadline))
             for _ in range(SETUP_PROBES)]
    output = _child("bench.worker", [workload, str(seed), str(seconds)],
                    deadline)
    try:
        document = json.loads(output.strip().splitlines()[-1])
    except (IndexError, ValueError):
        raise HarnessError(f"worker printed no result: {output!r}") from None
    document["setup_samples_s"] = setup
    document["end_to_end"]["setup_s"] = {"value": statistics.median(setup),
                                         "unit": "s"}
    return document


def render(workload: str, seed: int, document: typing.Dict[str, typing.Any]
           ) -> str:
    """Human-readable metric table of one workload."""
    failures = document["failures"]
    lines = [f"{workload}: seed {seed}, {document['attempted']} cells, "
             f"{document['repetitions']} timed repetitions, "
             f"{len(failures)} failed"]
    rows = {**document["end_to_end"],
            "failed_frac": {"value": len(failures) / document["attempted"],
                            "unit": "ratio"},
            **document["per_layer"]}
    for name, metric in rows.items():
        value = metric["value"]
        shown = f"{value:>16}" if isinstance(value, int) else f"{value:>16.6g}"
        lines.append(f"  {name:<30} {shown} {metric['unit']}")
    if document["unmapped"]:
        lines.append("  unmapped components: "
                     + ", ".join(document["unmapped"]))
    lines += [f"  FAILED {cell}: {reason}"
              for cell, reason in failures.items()]
    return "\n".join(lines)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bench/run.py",
        description="Host benchmark of the DRAM-less reproduction.")
    parser.add_argument("--workload", choices=WORKLOADS, default=None,
                        help="one workload (default: all five in turn)")
    parser.add_argument("--seed", type=int, default=1,
                        help="input seed (default 1; 2 is held out)")
    parser.add_argument("--seconds", type=int, default=10,
                        help="minimum length of the timed pass "
                             "(default 10; at least three repetitions)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="metrics on the JSON line: 0 end-to-end, "
                             "1 per-layer")
    parser.add_argument("--out", metavar="FILE", default=None,
                        help="also write every workload's full result "
                             "document to FILE as JSON")
    return parser


def main(argv: typing.Optional[typing.Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"bench: {ROOT / 'src' / 'repro'} not found; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    chosen = [args.workload] if args.workload else list(WORKLOADS)
    documents = {}
    for workload in chosen:
        try:
            documents[workload] = run_workload(workload, args.seed,
                                               args.seconds)
        except HarnessError as exc:
            print(f"bench: {workload}: {exc}", file=sys.stderr)
            return 2
        print(render(workload, args.seed, documents[workload]), flush=True)
    if args.out is not None:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(documents, handle, indent=2, sort_keys=True)
            handle.write("\n")
    selected = "per_layer" if args.trace else "end_to_end"
    metrics = {}
    for workload, document in documents.items():
        prefix = "" if len(documents) == 1 else f"{workload}."
        metrics.update({prefix + name: metric for name, metric
                        in document[selected].items()})
    failed = sum(len(document["failures"]) for document in documents.values())
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(document["attempted"]
                         for document in documents.values()),
        "failed": failed,
        "metrics": metrics,
    }))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
