"""The cell runner: every simulation the chosen experiments need, once.

Several figures are views of the same simulations — Figs. 15/16/17 of
one system matrix, and Fig. 7's oracle and Fig. 1's runs are cells of
it too — so the unit of work is the *cell*
(:class:`repro.experiments.runner.Cell`), not the experiment.
:func:`run_cells` simulates each distinct cell once, in-process at
``jobs=1`` or in a ``ProcessPoolExecutor`` otherwise, and merges
results and telemetry **in declaration order**: serial and sharded
runs take one path, so they are byte-identical by construction.
In an observed run each cell records into a session of its own
(:class:`~repro.telemetry.session.Telemetry`), and under an ambient
host profiler into a :class:`~repro.telemetry.hostprof.HostProfiler`
of its own; both cross the process boundary pickled as they are, and
the parent folds them in with their ``merge`` methods.  The session,
the host profiler, the process pool and the cache's pickling are
imported by the first run that uses them.

:class:`ResultCache` keys cells by (cell id, config hash, source-tree
hash of ``src/repro``): an unchanged cell is replayed, zero
simulations, and any source edit invalidates everything, so the cache
can never serve stale physics.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import json
import os
import pathlib
import typing

from repro.controller.request import reset_request_ids
from repro.experiments import runner
from repro.sim.hostprof import current_hostprof, use_hostprof
from repro.telemetry.metrics import MetricsRegistry, current_metrics
from repro.telemetry.tracer import RecordingTracer, Span, current_tracer

if typing.TYPE_CHECKING:  # pragma: no cover - typing-only imports
    import concurrent.futures

    from repro.telemetry.hostprof import HostProfiler
    from repro.telemetry.session import Telemetry

#: Bumped whenever the cached payload layout changes; part of every key.
#: 2: capture tuple gained the time-series sampling spec.
#: 3: capture tuple + CellOutcome gained the host-profiling fragment.
#: 4: a fragment's spans no longer carry the experiment scope (the
#:    merge applies it), and fig13's replays are cells of their own.
#: 5: one "observed" flag replaces the capture tuple; an outcome holds
#:    the cell's whole session, and host profiles are never cached.
CACHE_SCHEMA = 5

#: Default cache location (relative to the working directory).
DEFAULT_CACHE_DIR = ".repro-cache"

#: Canonical ``results/*.txt`` stem for each experiment id.
RESULT_NAMES: typing.Dict[str, str] = {
    "tables": "table1",
    "fig01": "fig01_motivation",
    "fig07": "fig07_firmware",
    "fig12": "fig12_interleaving",
    "fig13": "fig13_schedulers",
    "fig15": "fig15_bandwidth",
    "fig16": "fig16_exec_time",
    "fig17": "fig17_energy",
    "fig18": "fig18_ipc_gemver",
    "fig19": "fig19_ipc_doitg",
    "fig20": "fig20_power_gemver",
    "fig21": "fig21_power_doitg",
    "endurance": "endurance_reliability",
    "overload": "service_overload",
    "burst_absorption": "service_burst_absorption",
    "tenant_isolation": "service_tenant_isolation",
}


# ----------------------------------------------------------------------
# Cache keying
# ----------------------------------------------------------------------
_TREE_DIGESTS: typing.Dict[str, str] = {}


def source_tree_digest(root: typing.Union[str, os.PathLike[str], None]
                       = None) -> str:
    """Content hash of every ``*.py`` under ``src/repro``.

    Any source change — a latency constant, a scheduler tweak —
    produces a new digest and therefore a cold cache: cached results
    can never outlive the code that produced them.  Hashed once per
    process per root.
    """
    if root is None:
        root = pathlib.Path(__file__).resolve().parents[1]
    root = pathlib.Path(root).resolve()
    cached = _TREE_DIGESTS.get(str(root))
    if cached is not None:
        return cached
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(b"\0")
        digest.update(path.read_bytes())
        digest.update(b"\0")
    value = digest.hexdigest()
    _TREE_DIGESTS[str(root)] = value
    return value


def _config_payload(config: runner.ExperimentConfig
                    ) -> typing.Dict[str, typing.Any]:
    payload = dataclasses.asdict(config)
    payload["workloads"] = list(payload["workloads"])
    return payload


def cell_key(experiment: str, config: runner.ExperimentConfig,
             observed: bool,
             tree_digest: typing.Union[str, None] = None) -> str:
    """Content-addressed key for one cell.

    ``experiment`` is the cell id (``"matrix/<workload>/<system>"``,
    ``"experiment/<id>"``, ...); ``observed`` records whether the cell
    ran under a session of its own, so an observed rerun never replays
    an entry that holds none.
    """
    import platform

    payload = {
        "schema": CACHE_SCHEMA,
        "experiment": experiment,
        "config": _config_payload(config),
        "observed": observed,
        "tree": tree_digest if tree_digest is not None
        else source_tree_digest(),
        "python": platform.python_version(),
    }
    encoded = json.dumps(payload, sort_keys=True, default=repr)
    return hashlib.sha256(encoded.encode()).hexdigest()


class ResultCache:
    """Pickle store of cell outcomes under ``<root>/<key[:2]>/<key>``."""

    def __init__(self, root: typing.Union[str, os.PathLike[str]]) -> None:
        self.root = pathlib.Path(root)
        self.hits = 0
        self.misses = 0

    def _path(self, key: str) -> pathlib.Path:
        return self.root / key[:2] / f"{key}.pkl"

    def get(self, key: str) -> typing.Union["CellOutcome", None]:
        """The cached outcome for ``key``, or None (counts hit/miss)."""
        import pickle

        path = self._path(key)
        try:
            with open(path, "rb") as handle:
                outcome = pickle.load(handle)
        except (OSError, pickle.UnpicklingError, EOFError,
                AttributeError, ImportError):
            # Unreadable or stale-format entries are misses, never
            # errors: the cache must always be safe to delete.
            self.misses += 1
            return None
        self.hits += 1
        return typing.cast("CellOutcome", outcome)

    def put(self, key: str, outcome: "CellOutcome") -> None:
        """Persist ``outcome``; atomic via rename so readers never see
        a torn write."""
        import pickle

        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        temp = path.with_suffix(f".tmp.{os.getpid()}")
        with open(temp, "wb") as handle:
            pickle.dump(outcome, handle, protocol=pickle.HIGHEST_PROTOCOL)
        os.replace(temp, path)


# ----------------------------------------------------------------------
# Cell execution (in-process or in a pool worker)
# ----------------------------------------------------------------------
@dataclasses.dataclass
class CellOutcome:
    """Everything one cell produced, picklable across processes."""

    payload: typing.Any  # what the cell function returned
    #: the cell's own session (None unless the run is observed).
    telemetry: typing.Union[Telemetry, None]
    #: the cell's own host profiler (None unless one is ambient).
    hostprof: typing.Union[HostProfiler, None] = None


def _run_cell(cell: runner.Cell, config: runner.ExperimentConfig,
              observed: bool, profiled: bool) -> CellOutcome:
    """One cell under a fresh session and host profiler (as asked) and
    fresh request ids (DESIGN §11.1); in-process or in a pool worker
    alike."""
    telemetry: typing.Union[Telemetry, None] = None
    profiler: typing.Union[HostProfiler, None] = None
    with contextlib.ExitStack() as stack:
        if observed:
            from repro.telemetry import session

            telemetry = session.Telemetry()
            stack.enter_context(telemetry.activate())
        if profiled:
            from repro.telemetry import hostprof

            profiler = hostprof.HostProfiler()
            stack.enter_context(use_hostprof(profiler))
        reset_request_ids()
        payload = cell.function(config, *cell.args)
    return CellOutcome(payload=payload, telemetry=telemetry,
                       hostprof=profiler)


# ----------------------------------------------------------------------
# The runner (parent side)
# ----------------------------------------------------------------------
@dataclasses.dataclass
class RunStats:
    """How a run's cells were satisfied."""

    simulated: int = 0
    cached: int = 0


@dataclasses.dataclass
class CellRun:
    """What :func:`run_cells` hands back, keyed by cell id in
    first-declaration order."""

    #: cell id -> payload (an ExecutionResult, a report string, ...).
    results: typing.Dict[str, typing.Any]
    #: cell id -> the cell's own registry (None unless observed).
    metrics: typing.Dict[str, typing.Union[MetricsRegistry, None]]
    #: cell id -> the spans its merge added to the ambient tracer
    #: (empty unless a recording tracer is ambient).
    spans: typing.Dict[str, typing.List[Span]]
    stats: RunStats


def _outcomes(cells: typing.Sequence[runner.Cell],
              config: runner.ExperimentConfig, jobs: int,
              cache: typing.Union[ResultCache, None],
              observed: bool, profiled: bool,
              stats: RunStats) -> typing.Iterator[CellOutcome]:
    """Each cell's outcome **in cell order**, whatever the completion
    order: cached ones replayed, the rest simulated (and cached).

    This is the determinism pivot: submission fans out, but the merge
    walks ``cells`` front to back, so telemetry replay and result
    assembly see one order at any ``jobs``.  Yielding one outcome at a
    time lets each cell's session go once merged.
    """
    keys: typing.List[str] = []
    if cache is not None:
        tree = source_tree_digest()
        keys = [cell_key(cell.key, config, observed, tree)
                for cell in cells]
    cached: typing.List[typing.Union[CellOutcome, None]] = (
        [cache.get(key) for key in keys] if cache is not None
        else [None] * len(cells))
    pending = [index for index, outcome in enumerate(cached)
               if outcome is None]
    stats.simulated = len(pending)
    stats.cached = len(cells) - len(pending)
    with contextlib.ExitStack() as stack:
        futures: typing.Dict[int, concurrent.futures.Future[CellOutcome]] = {}
        if jobs > 1 and pending:
            from concurrent.futures import ProcessPoolExecutor

            pool = stack.enter_context(ProcessPoolExecutor(
                max_workers=min(jobs, len(pending))))
            futures = {index: pool.submit(_run_cell, cells[index], config,
                                          observed, profiled)
                       for index in pending}
        for index, cell in enumerate(cells):
            outcome = cached[index]
            if outcome is None:
                outcome = (futures.pop(index).result() if futures
                           else _run_cell(cell, config, observed, profiled))
                if cache is not None:
                    cache.put(keys[index], outcome)
            cached[index] = None
            yield outcome


def run_cells(
        plan: typing.Mapping[str, typing.Sequence[runner.Cell]],
        config: runner.ExperimentConfig,
        *,
        jobs: int = 1,
        cache_dir: typing.Union[str, os.PathLike[str], None] = None,
) -> CellRun:
    """Simulate the union of ``plan``'s cells once; merge in order.

    ``plan`` maps a tracer scope label (an experiment id, or ``""`` for
    none) to the cells declared under it.  A key declared twice runs
    once: the first declaration wins, and its spans merge under that
    declaration's scope, nested in whatever scope is current.  With a
    metrics registry ambient the run is *observed*: every cell records
    into a session of its own, whose registry and spans fold into the
    ambient registry and recording tracer.  With a host profiler
    ambient, every cell is profiled by one of its own, folded into it.
    Cells run in-process at ``jobs=1`` and in a pool of ``jobs``
    processes otherwise; ``cache_dir`` replays unchanged cells from the
    :class:`ResultCache` instead, which a host-profiled run cannot use:
    host time must be measured in the run that reports it.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    profiler = current_hostprof()
    if profiler is not None and cache_dir is not None:
        raise ValueError("a host-profiled run cannot replay cells from "
                         "the result cache: host time must be measured "
                         "in the run that reports it")
    declared: typing.Dict[str, typing.Tuple[str, runner.Cell]] = {}
    for scope, cells in plan.items():
        for cell in cells:
            declared.setdefault(cell.key, (scope, cell))
    cache = ResultCache(cache_dir) if cache_dir is not None else None
    run = CellRun(results={}, metrics={}, spans={}, stats=RunStats())
    registry = current_metrics()
    tracer = current_tracer()
    outcomes = _outcomes([cell for _, cell in declared.values()], config,
                         jobs, cache, registry.enabled,
                         profiler is not None, run.stats)
    for outcome, (key, (scope, _)) in zip(outcomes, declared.items()):
        run.results[key] = outcome.payload
        run.metrics[key] = None
        run.spans[key] = []
        if outcome.telemetry is not None:
            run.metrics[key] = outcome.telemetry.metrics
            registry.merge(outcome.telemetry.metrics)
            if isinstance(tracer, RecordingTracer):
                mark = len(tracer.spans)
                with (tracer.scope(scope) if scope
                      else contextlib.nullcontext()):
                    tracer.merge(outcome.telemetry.tracer)
                run.spans[key] = tracer.spans[mark:]
        if outcome.hostprof is not None:
            from repro.telemetry import hostprof

            if isinstance(profiler, hostprof.HostProfiler):
                profiler.merge(outcome.hostprof)
    return run


def cell_results(cells: typing.Sequence[runner.Cell],
                 config: runner.ExperimentConfig
                 ) -> typing.Dict[str, typing.Any]:
    """``key -> payload`` of ``cells``, run in-process with no cache."""
    return run_cells({"": cells}, config).results


# ----------------------------------------------------------------------
# Result files
# ----------------------------------------------------------------------
def write_result(results_dir: typing.Union[str, os.PathLike[str]],
                 stem: str, text: str,
                 config: runner.ExperimentConfig) -> pathlib.Path:
    """Persist one report under the provenance header the benchmark
    suite uses, so CLI- and pytest-produced ``results/*.txt`` are
    interchangeable."""
    from repro.telemetry.bench import collect_provenance

    directory = pathlib.Path(results_dir)
    directory.mkdir(parents=True, exist_ok=True)
    provenance = collect_provenance(scale=config.scale, seed=config.seed,
                                    agents=config.agents)
    header = "\n".join(
        f"# {key}: {provenance[key]}"
        for key in ("git_sha", "scale", "seed", "agents", "timestamp"))
    path = directory / f"{stem}.txt"
    path.write_text(header + "\n\n" + text + "\n")
    return path
