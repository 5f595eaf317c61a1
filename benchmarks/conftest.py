"""Shared benchmark configuration and the cached execution matrix.

Every benchmark runs its experiment exactly once (pedantic, one round)
and writes its text report to ``results/`` under a provenance header,
so a checked-in result is attributable to the commit, scale, and seed
that produced it.  Figures 15-17 are views of one set of cells, the
expensive full system x workload matrix, run once by a session
fixture through the cell runner.

Benchmarks also feed scalar metrics into a session-wide
``BENCH_<git-sha>.json`` trajectory file (see
:mod:`repro.telemetry.bench`) via the ``bench_record`` fixture; the
file lands in ``results/`` (override the path with ``REPRO_BENCH_OUT``)
and is what ``python -m repro.telemetry compare`` diffs across
commits.
"""

import os
import pathlib

import pytest

from repro.experiments import fig15_bandwidth, fig16_exec_time, fig17_energy
from repro.experiments.parallel import run_cells
from repro.experiments.runner import ExperimentConfig
from repro.sim.stats import DEFAULT_SKETCH_LAYOUT
from repro.telemetry.timeseries import DEFAULT_WINDOW_NS
from repro.telemetry.bench import (
    BenchMetric,
    BenchReport,
    bench_filename,
    collect_provenance,
    write_bench,
)

#: The benchmark evaluation configuration: full suite, quarter-scale
#: footprints with shrunken caches (footprint >> cache, as in the
#: paper's inflated-volume setup).
BENCH_CONFIG = ExperimentConfig(scale=0.25)

RESULTS_DIR = pathlib.Path(__file__).resolve().parent.parent / "results"

#: Metrics accumulated by ``bench_record`` over the whole session.
_BENCH_METRICS = {}


def _provenance():
    provenance = collect_provenance(scale=BENCH_CONFIG.scale,
                                    seed=BENCH_CONFIG.seed,
                                    agents=BENCH_CONFIG.agents)
    # Stamp the measurement configuration: percentile metrics from a
    # different sketch layout (or series from a different sampling
    # window) are not comparable, and ``telemetry compare`` refuses to
    # diff reports whose stamps disagree.
    provenance["sketch"] = DEFAULT_SKETCH_LAYOUT.spec()
    provenance["timeseries_window_ns"] = DEFAULT_WINDOW_NS
    # Service-layer plan (and its seed) behind any service.* metrics:
    # SLO numbers from different traffic plans are different
    # measurements, so compare refuses to diff them.
    provenance["service"] = BENCH_CONFIG.service or "none"
    return provenance


@pytest.fixture(scope="session")
def bench_config():
    return BENCH_CONFIG


@pytest.fixture(scope="session")
def full_matrix(bench_config):
    """Cell results of the 15-workload x 11-system matrix (run once),
    the cells Figures 15-17 are views of.

    ``REPRO_BENCH_JOBS=N`` shards the matrix cells across N worker
    processes and ``REPRO_BENCH_CACHE=DIR`` replays unchanged cells
    from the content-addressed result cache; both merge back
    deterministically, so the results are identical to a serial run's.
    """
    jobs = int(os.environ.get("REPRO_BENCH_JOBS", "1"))
    cache_dir = os.environ.get("REPRO_BENCH_CACHE") or None
    cells = [cell for figure in (fig15_bandwidth, fig16_exec_time,
                                 fig17_energy)
             for cell in figure.cells(bench_config)]
    return run_cells({"": cells}, bench_config, jobs=jobs,
                     cache_dir=cache_dir).results


@pytest.fixture(scope="session")
def results_dir():
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


@pytest.fixture(scope="session")
def bench_record():
    """Record one scalar into the session's BENCH_*.json trajectory.

    Usage: ``bench_record("fig12.hidden_fraction", 0.43,
    better="higher", unit="fraction")``.  ``better`` declares the
    regression direction for ``telemetry compare``.
    """
    def record(name, value, better="neutral", unit=""):
        _BENCH_METRICS[name] = BenchMetric(
            value=float(value), better=better, unit=unit)
    return record


def write_report(results_dir: pathlib.Path, name: str, text: str) -> None:
    """Persist one experiment's text report under a provenance header."""
    provenance = _provenance()
    header = "\n".join(
        f"# {key}: {provenance[key]}"
        for key in ("git_sha", "scale", "seed", "agents", "timestamp"))
    (results_dir / f"{name}.txt").write_text(
        header + "\n\n" + text + "\n")


def pytest_sessionfinish(session, exitstatus):
    """Write the accumulated metrics as one BENCH_<sha>.json."""
    if not _BENCH_METRICS:
        return
    provenance = _provenance()
    out = os.environ.get("REPRO_BENCH_OUT")
    if out:
        path = pathlib.Path(out)
        path.parent.mkdir(parents=True, exist_ok=True)
    else:
        RESULTS_DIR.mkdir(exist_ok=True)
        path = RESULTS_DIR / bench_filename(provenance["git_sha"])
    write_bench(BenchReport(provenance=provenance,
                            metrics=dict(_BENCH_METRICS)), path)
