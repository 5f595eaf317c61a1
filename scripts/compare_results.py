#!/usr/bin/env python
"""Compare two results trees report by report, below the provenance header.

Usage, from the repository root::

    python scripts/compare_results.py OLD NEW

Every ``<report>.txt`` that ``python -m repro.experiments ... --results
DIR`` writes starts with a provenance header: ``# key: value`` lines
(commit, scale, seed, agents, timestamp) and a blank line.  This script
compares the bodies below those headers, so two runs of the same
configuration compare equal whatever commit and time they were made
at.  It prints one line per report that is missing from either tree
or whose body differs, naming the first line that differs, and exits
1 if there is any; it exits 0 when every report's body is identical,
and 2 when a tree is not a directory or holds no reports.
"""

from __future__ import annotations

import argparse
import pathlib
import sys
import typing


def body(path: pathlib.Path) -> typing.List[str]:
    """The report's lines below its provenance header."""
    lines = path.read_text(encoding="utf-8").splitlines()
    start = 0
    while start < len(lines) and lines[start].startswith("# "):
        start += 1
    if start < len(lines) and not lines[start]:
        start += 1
    return lines[start:]


def first_difference(old: typing.Sequence[str],
                     new: typing.Sequence[str]) -> typing.Optional[str]:
    """The first body line that differs, or None when both are equal."""
    for number, (before, after) in enumerate(zip(old, new), start=1):
        if before != after:
            return f"line {number}: {before!r} became {after!r}"
    if len(old) > len(new):
        return f"line {len(new) + 1}: {old[len(new)]!r} is gone"
    if len(new) > len(old):
        return f"line {len(old) + 1}: {new[len(old)]!r} is new"
    return None


def compare(old_dir: pathlib.Path,
            new_dir: pathlib.Path) -> typing.List[str]:
    """One problem line per missing or differing report."""
    old = {path.name: path for path in old_dir.glob("*.txt")}
    new = {path.name: path for path in new_dir.glob("*.txt")}
    problems = []
    for name in sorted(old.keys() | new.keys()):
        if name not in new:
            problems.append(f"{name}: missing from {new_dir}")
        elif name not in old:
            problems.append(f"{name}: missing from {old_dir}")
        else:
            difference = first_difference(body(old[name]), body(new[name]))
            if difference is not None:
                problems.append(f"{name}: {difference}")
    return problems


def main(argv: typing.Optional[typing.Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="compare_results.py",
        description="Compare two results trees below the provenance "
                    "headers.")
    parser.add_argument("old", type=pathlib.Path, help="reference tree")
    parser.add_argument("new", type=pathlib.Path, help="tree to check")
    args = parser.parse_args(argv)
    for tree in (args.old, args.new):
        if not tree.is_dir():
            print(f"compare_results: {tree} is not a directory",
                  file=sys.stderr)
            return 2
    count = len({path.name for tree in (args.old, args.new)
                 for path in tree.glob("*.txt")})
    if count == 0:
        print(f"compare_results: no reports in {args.old} or {args.new}",
              file=sys.stderr)
        return 2
    problems = compare(args.old, args.new)
    for problem in problems:
        print(problem)
    if problems:
        print(f"{len(problems)} of {count} reports differ or are missing")
        return 1
    print(f"{count} reports identical below the provenance header")
    return 0


if __name__ == "__main__":
    sys.exit(main())
