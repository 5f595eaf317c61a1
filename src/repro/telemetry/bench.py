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

BENCH holds simulated metrics only, the ones the gate compares: they
are deterministic, so any movement is a change in the model.  Host
wall clock is measured by the calibrated ``bench/`` harness and by
``--hostprof`` on the experiments CLI, never recorded here.

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
    }
    if scale is not None:
        provenance["scale"] = scale
    if seed is not None:
        provenance["seed"] = seed
    if agents is not None:
        provenance["agents"] = agents
    return provenance


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
# Comparison
# ----------------------------------------------------------------------
#: Provenance keys that describe *how* latency metrics were measured.
#: Two reports disagreeing on any of these measured different things —
#: a p99 over 16 sub-buckets is not comparable to one over 4, window
#: means change with the window, and SLO metrics change with the
#: traffic plan — so `compare` refuses to diff them rather than report
#: a phantom regression.
MEASUREMENT_KEYS: typing.Tuple[str, ...] = (
    "sketch", "timeseries_window_ns", "service")


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
