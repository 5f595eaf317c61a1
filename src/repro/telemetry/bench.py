"""Machine-readable benchmark trajectory: BENCH_*.json write/load/compare.

The benchmark suite historically emitted prose ``results/*.txt`` files
— attributable to nothing and comparable by eyeball only.  This module
gives every run a machine-readable artifact:

* :func:`collect_provenance` — git sha, experiment scale/seed/agents,
  UTC timestamp, python version: who produced the numbers.
* :class:`BenchReport` — per-figure scalar metrics, each tagged with a
  regression direction (``lower``/``higher``/``neutral``) and a unit.
* :func:`compare` — per-metric deltas between two reports; a change in
  the *bad* direction beyond the threshold is a regression.  This is
  the gate every future performance PR is judged against:
  ``python -m repro.telemetry compare BASELINE.json CANDIDATE.json``.

Schema (``repro.bench/1``)::

    {
      "schema": "repro.bench/1",
      "provenance": {"git_sha": "...", "timestamp": "...", ...},
      "metrics": {
        "fig12.hidden_fraction": {"value": 0.41,
                                   "better": "higher",
                                   "unit": "fraction"},
        ...
      }
    }
"""

from __future__ import annotations

import dataclasses
# Provenance stamps the *host* run that produced a result set, not
# simulated behavior — the one sanctioned wall-clock use in src.
import datetime  # noqa: SIM001
import json
import math
import os
import pathlib
import platform
import subprocess
import typing

SCHEMA = "repro.bench/1"

#: Legal regression directions for a metric.
DIRECTIONS = ("lower", "higher", "neutral")

#: Default relative-change threshold for flagging a regression.
DEFAULT_THRESHOLD = 0.05


@dataclasses.dataclass
class BenchMetric:
    """One scalar benchmark metric with its regression direction."""

    value: float
    better: str = "neutral"
    unit: str = ""

    def __post_init__(self) -> None:
        if self.better not in DIRECTIONS:
            raise ValueError(
                f"better must be one of {DIRECTIONS}, got {self.better!r}")
        if math.isnan(self.value):
            raise ValueError("benchmark metrics must not be NaN")

    def to_dict(self) -> typing.Dict[str, typing.Any]:
        """JSON representation."""
        return {"value": self.value, "better": self.better,
                "unit": self.unit}


@dataclasses.dataclass
class BenchReport:
    """One run's metrics plus the provenance that produced them."""

    provenance: typing.Dict[str, typing.Any]
    metrics: typing.Dict[str, BenchMetric]
    schema: str = SCHEMA

    def to_dict(self) -> typing.Dict[str, typing.Any]:
        """JSON representation (metrics in sorted order)."""
        return {
            "schema": self.schema,
            "provenance": dict(self.provenance),
            "metrics": {name: self.metrics[name].to_dict()
                        for name in sorted(self.metrics)},
        }

    @classmethod
    def from_dict(cls, payload: typing.Dict[str, typing.Any]
                  ) -> "BenchReport":
        """Parse a :meth:`to_dict` payload (schema-checked)."""
        schema = payload.get("schema")
        if schema != SCHEMA:
            raise ValueError(
                f"unsupported bench schema {schema!r} (want {SCHEMA!r})")
        raw_metrics = payload.get("metrics")
        if not isinstance(raw_metrics, dict):
            raise ValueError("bench report has no metrics mapping")
        metrics = {}
        for name, entry in raw_metrics.items():
            if not isinstance(entry, dict) or "value" not in entry:
                raise ValueError(f"metric {name!r} has no value")
            metrics[name] = BenchMetric(
                value=float(entry["value"]),
                better=str(entry.get("better", "neutral")),
                unit=str(entry.get("unit", "")))
        provenance = payload.get("provenance")
        return cls(provenance=dict(provenance) if isinstance(
            provenance, dict) else {}, metrics=metrics)


def git_sha(repo_root: typing.Union[str, pathlib.Path, None] = None,
            short: bool = True) -> str:
    """The working tree's commit sha (env ``REPRO_GIT_SHA`` wins).

    Falls back to ``"unknown"`` outside a git checkout so provenance
    never breaks a run.
    """
    override = os.environ.get("REPRO_GIT_SHA")
    if override:
        return override
    if repo_root is None:
        repo_root = pathlib.Path(__file__).resolve().parents[3]
    command = ["git", "-C", str(repo_root), "rev-parse"]
    if short:
        command.append("--short")
    command.append("HEAD")
    try:
        out = subprocess.run(command, capture_output=True, text=True,
                             timeout=10, check=False)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else "unknown"


def host_environment() -> typing.Dict[str, typing.Any]:
    """The host machine identity relevant to wall-clock metrics.

    Stamped into every provenance block so ``host_ns.*`` comparisons
    across machines can *warn* (see :func:`host_conflicts`) instead of
    silently diffing numbers measured on different silicon.
    """
    return {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count() or 0,
    }


def collect_provenance(
        scale: float | None = None,
        seed: int | None = None,
        agents: int | None = None,
        repo_root: typing.Union[str, pathlib.Path, None] = None,
) -> typing.Dict[str, typing.Any]:
    """Provenance block: attribute a result set to its producing run.

    ``REPRO_TIMESTAMP`` overrides the wall-clock stamp — CI and the
    serial-vs-parallel equivalence tests pin it so two runs of the same
    tree produce byte-identical artifacts.
    """
    provenance: typing.Dict[str, typing.Any] = {
        "git_sha": git_sha(repo_root),
        "timestamp": os.environ.get("REPRO_TIMESTAMP") or
        datetime.datetime.now(
            datetime.timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ"),
        "python": platform.python_version(),
        "host": host_environment(),
    }
    if scale is not None:
        provenance["scale"] = scale
    if seed is not None:
        provenance["seed"] = seed
    if agents is not None:
        provenance["agents"] = agents
    if _ATTESTATIONS:
        provenance["attestations"] = {
            key: _ATTESTATIONS[key] for key in sorted(_ATTESTATIONS)}
    return provenance


# ----------------------------------------------------------------------
# Attestations
# ----------------------------------------------------------------------
#: Process-wide attestation registry merged into every provenance block.
_ATTESTATIONS: typing.Dict[str, typing.Any] = {}


def record_attestation(key: str, value: typing.Any) -> None:
    """Register a machine-checked claim about this process's runs.

    Attestations are facts an oracle *verified*, not configuration —
    e.g. the tie-break shuffle oracle records ``tiebreak_independent``
    after byte-diffing shuffled drain orders
    (:func:`repro.analysis.racecheck.certify_tiebreak_independence`).
    Every :func:`collect_provenance` call afterwards embeds them under
    ``attestations``, so BENCH artifacts carry the claim alongside the
    numbers it covers.  Re-recording a key overwrites it.
    """
    if not key:
        raise ValueError("attestation key must be non-empty")
    _ATTESTATIONS[key] = value


def clear_attestations() -> None:
    """Drop all recorded attestations (test isolation)."""
    _ATTESTATIONS.clear()


def stamp_provenance(path: typing.Union[str, pathlib.Path],
                     key: str, value: typing.Any) -> None:
    """Add one attestation to an already-written BENCH artifact.

    CI runs the shuffle oracle *after* the benchmark job wrote its
    BENCH_*.json; this rewrites the artifact in place with the new
    attestation, preserving everything else byte-for-byte (stable
    key order, same formatting as :func:`write_bench`).
    """
    report = load_bench(path)
    attestations = report.provenance.setdefault("attestations", {})
    if not isinstance(attestations, dict):
        raise ValueError(
            f"provenance attestations in {path} is not a mapping")
    attestations[key] = value
    write_bench(report, path)


def bench_filename(sha: str) -> str:
    """Canonical artifact name for one commit's run."""
    return f"BENCH_{sha}.json"


def write_bench(report: BenchReport,
                path: typing.Union[str, pathlib.Path]) -> None:
    """Serialize ``report`` to ``path`` (pretty-printed, stable order)."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(report.to_dict(), handle, indent=2, sort_keys=True)
        handle.write("\n")


def load_bench(path: typing.Union[str, pathlib.Path]) -> BenchReport:
    """Parse a BENCH_*.json file."""
    with open(path, encoding="utf-8") as handle:
        return BenchReport.from_dict(json.load(handle))


# ----------------------------------------------------------------------
# Fragment merge
# ----------------------------------------------------------------------
def merge_reports(fragments: typing.Sequence[BenchReport],
                  provenance: typing.Optional[
                      typing.Dict[str, typing.Any]] = None) -> BenchReport:
    """Merge per-shard BENCH fragments into one report, deterministically.

    Sharded runs (parallel sweeps, split benchmark jobs) each write
    their own ``BENCH_*.json``; this folds them into a single report
    with metrics in sorted-name order regardless of shard completion
    order.  A metric appearing in two fragments must agree exactly —
    a silent last-writer-wins would let shards mask each other.
    """
    if not fragments:
        raise ValueError("no bench fragments to merge")
    metrics: typing.Dict[str, BenchMetric] = {}
    origin: typing.Dict[str, int] = {}
    for index, fragment in enumerate(fragments):
        for name, metric in fragment.metrics.items():
            existing = metrics.get(name)
            if existing is not None and (
                    existing.value != metric.value
                    or existing.better != metric.better):
                raise ValueError(
                    f"conflicting values for metric {name!r}: fragment "
                    f"{origin[name]} has {existing.value!r} "
                    f"({existing.better}), fragment {index} has "
                    f"{metric.value!r} ({metric.better})")
            metrics[name] = metric
            origin.setdefault(name, index)
    merged_provenance = dict(
        provenance if provenance is not None else fragments[0].provenance)
    merged_provenance["merged_fragments"] = len(fragments)
    return BenchReport(
        provenance=merged_provenance,
        metrics={name: metrics[name] for name in sorted(metrics)})


# ----------------------------------------------------------------------
# Comparison
# ----------------------------------------------------------------------
#: Provenance keys that describe *how* latency metrics were measured.
#: Two reports disagreeing on any of these measured different things —
#: a p99 over 16 sub-buckets is not comparable to one over 4, window
#: means change with the window, and older committed reports stamp the
#: execution backend they ran on, whose wall-clock metrics do not
#: compare across engines — so `compare` refuses to diff them rather
#: than report a phantom regression.
MEASUREMENT_KEYS: typing.Tuple[str, ...] = (
    "sketch", "timeseries_window_ns", "backend", "service")


def provenance_conflicts(
        baseline: BenchReport, candidate: BenchReport,
        keys: typing.Sequence[str] = MEASUREMENT_KEYS) -> typing.List[str]:
    """Measurement-configuration mismatches between two reports.

    Only keys present in *both* provenance blocks can conflict — a
    baseline recorded before a key existed stays comparable.
    """
    conflicts = []
    for key in keys:
        base = baseline.provenance.get(key)
        cand = candidate.provenance.get(key)
        if base is not None and cand is not None and base != cand:
            conflicts.append(
                f"{key}: baseline {base!r} vs candidate {cand!r}")
    return conflicts


#: Metric-name prefix whose values are host wall-clock (machine-bound).
HOST_METRIC_PREFIX = "host_ns."


def host_conflicts(baseline: BenchReport,
                   candidate: BenchReport) -> typing.List[str]:
    """Host-environment mismatches between two reports.

    Unlike :func:`provenance_conflicts` these never *refuse* a compare
    — simulated metrics are machine-independent — but ``host_ns.*``
    deltas across different machines are weather, not signal, so the
    CLI surfaces these as warnings when such metrics are present.
    Only keys recorded in *both* ``host`` blocks can conflict.
    """
    base = baseline.provenance.get("host")
    cand = candidate.provenance.get("host")
    if not isinstance(base, dict) or not isinstance(cand, dict):
        return []
    conflicts = []
    for key in sorted(set(base) & set(cand)):
        if base[key] != cand[key]:
            conflicts.append(
                f"host {key}: baseline {base[key]!r} vs "
                f"candidate {cand[key]!r}")
    return conflicts


def has_host_metrics(*reports: BenchReport) -> bool:
    """Whether any report carries ``host_ns.*`` wall-clock metrics."""
    return any(name.startswith(HOST_METRIC_PREFIX)
               for report in reports for name in report.metrics)


@dataclasses.dataclass
class MetricDelta:
    """One metric's movement between baseline and candidate."""

    name: str
    baseline: float
    candidate: float
    better: str
    unit: str
    relative_change: float
    verdict: str  # "regression" | "improvement" | "unchanged" | "neutral"


@dataclasses.dataclass
class CompareResult:
    """Everything :func:`compare` found between two reports."""

    deltas: typing.List[MetricDelta]
    missing: typing.List[str]   # in baseline, absent from candidate
    added: typing.List[str]     # in candidate, absent from baseline
    threshold: float

    @property
    def regressions(self) -> typing.List[MetricDelta]:
        """Deltas that moved in the bad direction beyond the threshold."""
        return [d for d in self.deltas if d.verdict == "regression"]

    @property
    def improvements(self) -> typing.List[MetricDelta]:
        """Deltas that moved in the good direction beyond the threshold."""
        return [d for d in self.deltas if d.verdict == "improvement"]


def _relative_change(baseline: float, candidate: float) -> float:
    if baseline == 0.0:
        return 0.0 if candidate == 0.0 else math.copysign(
            math.inf, candidate)
    return (candidate - baseline) / abs(baseline)


def compare(baseline: BenchReport, candidate: BenchReport,
            threshold: float = DEFAULT_THRESHOLD) -> CompareResult:
    """Per-metric comparison; direction-aware regression flagging."""
    if threshold < 0:
        raise ValueError(f"threshold must be >= 0, got {threshold}")
    deltas: typing.List[MetricDelta] = []
    missing = sorted(set(baseline.metrics) - set(candidate.metrics))
    added = sorted(set(candidate.metrics) - set(baseline.metrics))
    for name in sorted(set(baseline.metrics) & set(candidate.metrics)):
        base = baseline.metrics[name]
        cand = candidate.metrics[name]
        relative = _relative_change(base.value, cand.value)
        better = cand.better or base.better
        if better == "neutral":
            verdict = "neutral"
        elif abs(relative) <= threshold:
            verdict = "unchanged"
        elif (relative > 0) == (better == "higher"):
            verdict = "improvement"
        else:
            verdict = "regression"
        deltas.append(MetricDelta(
            name=name, baseline=base.value, candidate=cand.value,
            better=better, unit=cand.unit or base.unit,
            relative_change=relative, verdict=verdict))
    return CompareResult(deltas=deltas, missing=missing, added=added,
                         threshold=threshold)


def render_compare(result: CompareResult) -> str:
    """Terminal rendering of a comparison (one line per metric)."""
    if not result.deltas and not result.missing and not result.added:
        return "no metrics in common"
    width = max((len(d.name) for d in result.deltas), default=6)
    width = max(width, *(len(n) for n in result.missing + result.added),
                6) if (result.missing or result.added) else width
    lines = [f"{'metric':<{width}}  {'baseline':>12}  {'candidate':>12}  "
             f"{'change':>8}  verdict"]
    lines.append(f"{'-' * width}  {'-' * 12}  {'-' * 12}  {'-' * 8}  "
                 f"{'-' * 11}")
    for delta in result.deltas:
        if math.isinf(delta.relative_change):
            change = "inf"
        else:
            change = f"{delta.relative_change:+.1%}"
        lines.append(
            f"{delta.name:<{width}}  {delta.baseline:>12.6g}  "
            f"{delta.candidate:>12.6g}  {change:>8}  {delta.verdict}")
    for name in result.missing:
        lines.append(f"{name:<{width}}  {'-':>12}  {'-':>12}  {'-':>8}  "
                     f"missing from candidate")
    for name in result.added:
        lines.append(f"{name:<{width}}  {'-':>12}  {'-':>12}  {'-':>8}  "
                     f"new in candidate")
    lines.append("")
    lines.append(
        f"{len(result.regressions)} regression(s), "
        f"{len(result.improvements)} improvement(s) beyond "
        f"{result.threshold:.0%} threshold; "
        f"{len(result.missing)} missing, {len(result.added)} new")
    return "\n".join(lines)


def compare_payload(
        result: CompareResult, baseline: BenchReport,
        candidate: BenchReport,
        warnings: typing.Optional[typing.Sequence[str]] = None,
) -> typing.Dict[str, typing.Any]:
    """The comparison as a machine-readable document (``compare --json``).

    The same delta data :func:`render_compare` prints, shaped for CI
    post-processing; infinities serialize as strings so the document
    stays strict JSON.
    """
    def finite(value: float) -> typing.Union[float, str]:
        return value if math.isfinite(value) else repr(value)

    return {
        "schema": "repro.bench-compare/1",
        "baseline_sha": baseline.provenance.get("git_sha", "?"),
        "candidate_sha": candidate.provenance.get("git_sha", "?"),
        "threshold": result.threshold,
        "deltas": [
            {"name": delta.name, "baseline": delta.baseline,
             "candidate": delta.candidate, "better": delta.better,
             "unit": delta.unit,
             "relative_change": finite(delta.relative_change),
             "verdict": delta.verdict}
            for delta in result.deltas
        ],
        "missing": list(result.missing),
        "added": list(result.added),
        "regressions": len(result.regressions),
        "improvements": len(result.improvements),
        "warnings": list(warnings) if warnings else [],
    }
