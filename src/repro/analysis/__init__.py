"""Static and dynamic invariant checking for the DRAM-less reproduction.

Four pillars, each usable on its own:

* :mod:`repro.analysis.lint` — an AST lint pass with simulator-specific
  rules (``SIM001``–``SIM008``) that catch the cheap-to-ship,
  expensive-to-debug bug classes of a hand-rolled discrete-event
  kernel: nondeterminism, illegal yields, negative latencies, shared
  mutable defaults, unguarded cross-``yield`` / same-timestamp state
  mutation (including interprocedural races through helper methods),
  and processes spawned only to be waited on.
* :mod:`repro.analysis.conformance` — an explicit state machine for the
  LPDDR2-NVM three-phase addressing protocol (pre-active → activate →
  read/write) that replays the controller commands a recording tracer
  kept, per simulated run, and checks the legality of RAB/RDB phase
  skips.  The model never imports this package.
* :mod:`repro.analysis.determinism` — a harness that runs a workload
  twice and diffs the kernel's event traces, also exposed as the
  ``@pytest.mark.determinism`` marker via
  :mod:`repro.analysis.pytest_plugin`.
* :mod:`repro.analysis.racecheck` — a dynamic happens-before sanitizer
  for same-timestamp races (W/W and R/W conflicts whose outcome the
  kernel tie-break order decides) and the tie-break shuffle oracle
  that certifies workloads as tie-break independent.

Command line: ``python -m repro.analysis [paths ...]`` lints a source
tree (``--format github`` for CI annotation), ``--trace
DIR/spans.jsonl`` replays the command lines of an ``--observe`` span
log through the conformance checker, and ``--shuffle
EXPERIMENT[,...]`` runs the shuffle oracle.
"""

from repro.analysis.conformance import ProtocolChecker, Violation, check_trace
from repro.analysis.determinism import (
    DeterminismError,
    assert_deterministic,
    capture_trace,
    diff_traces,
    trace_of,
)
from repro.analysis.lint import LintViolation, lint_file, lint_paths, lint_source
from repro.analysis.racecheck import (
    Access,
    AccessSite,
    RaceReport,
    RaceSanitizer,
    TieBreakCertificate,
    TieBreakMismatch,
    canonical_fingerprint,
    certify_tiebreak_independence,
    format_races,
    sanitize,
)

__all__ = [
    "Access",
    "AccessSite",
    "DeterminismError",
    "LintViolation",
    "ProtocolChecker",
    "RaceReport",
    "RaceSanitizer",
    "TieBreakCertificate",
    "TieBreakMismatch",
    "Violation",
    "assert_deterministic",
    "canonical_fingerprint",
    "capture_trace",
    "certify_tiebreak_independence",
    "check_trace",
    "diff_traces",
    "format_races",
    "lint_file",
    "lint_paths",
    "lint_source",
    "sanitize",
    "trace_of",
]
