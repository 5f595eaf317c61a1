"""Same-timestamp race detection for the DES kernel.

The simulation kernel drains equal-timestamp events in FIFO schedule
order (a documented, asserted invariant — see
:meth:`repro.sim.engine.Simulator.run`).  Aggressive execution backends
— the batched same-timestamp drain, the sharded parallel merge, a
future compiled/vectorized kernel — are only sound for workloads whose
*results* do not depend on that tie-break order.  This module provides
the two oracles that make the independence claim checkable:

**Dynamic happens-before sanitizer** (:class:`RaceSanitizer`)
    Opt-in engine instrumentation.  Install it ambiently
    (:func:`sanitize` / :func:`repro.sim.use_sanitizer`), mark the
    shared objects to observe with :meth:`RaceSanitizer.watch`, and run
    the workload.  The kernel reports every atomic task (one event's
    callback batch) and the task that scheduled its event, and the
    watched objects report every attribute read/write with its source
    location.  Two conflicting accesses (W/W or R/W) at the *same
    simulated timestamp* from tasks with *no happens-before path* are
    exactly the accesses whose outcome the tie-break order decides;
    :meth:`RaceSanitizer.races` returns them as deterministic,
    source-located reports.

**Tie-break shuffle oracle** (:func:`certify_tiebreak_independence`)
    Empirical certification.  Runs a workload once under FIFO order and
    K more times with seeded random permutations of every
    same-timestamp batch (:func:`repro.sim.use_tiebreak`), and diffs a
    canonical byte-level fingerprint of the final stats.  Byte-identical
    fingerprints across all runs *certify* tie-break independence; a
    mismatch *refutes* it and pinpoints the first divergence.  CI's
    ``python -m repro.analysis --shuffle`` step is the record of which
    experiments hold the certificate.  The two oracles compose: the
    sanitizer names the racing access, the shuffle decides whether the
    race is observable in the stats.

Happens-before model
--------------------
A **task** is one atomic unit of kernel execution: the processing of
one popped event — its callback list, including every process segment
those callbacks resume, runs to completion with no interleaving.  Tasks
are numbered in processing order; task 0 is the root segment (all code
outside ``run()``, e.g. model construction).  Every task has exactly
one causal parent: the task that scheduled its event — a timeout, a
succeed/fail, a ``Resource`` grant or a hold's end all reach the
kernel's one schedule hook — so the graph is a tree and *A
happens-before B* iff A is an ancestor of B.  This is sound and
complete for this kernel: a process's consecutive segments chain
through the events it yields on, and every cross-process signal
(succeed, Store hand-off, Resource grant) is itself a scheduled event.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import json
import re
import sys
import typing

from repro.sim.observer import KernelObserver, event_label, event_owner
from repro.sim.sanitizer import use_sanitizer, use_tiebreak

if typing.TYPE_CHECKING:  # pragma: no cover - typing-only imports
    from repro.sim.event import Event


# ----------------------------------------------------------------------
# Happens-before graph records
# ----------------------------------------------------------------------
@dataclasses.dataclass
class _TaskInfo:
    """One atomic kernel task (one event's callback batch)."""

    task_id: int
    parent: int
    time_ns: float
    label: str
    actor: str = ""


@dataclasses.dataclass(frozen=True)
class Access:
    """One watched attribute read/write inside one task."""

    task: int
    obj: str
    attr: str
    kind: str  # "read" | "write"
    file: str
    line: int

    @property
    def site(self) -> str:
        """``file:line`` of the access."""
        return f"{self.file}:{self.line}"


@dataclasses.dataclass(frozen=True)
class AccessSite:
    """One side of a race report, fully located."""

    kind: str
    file: str
    line: int
    task_label: str
    actor: str

    def __str__(self) -> str:
        actor = f", actor {self.actor}" if self.actor else ""
        return f"{self.kind} at {self.file}:{self.line} " \
               f"(task {self.task_label}{actor})"


@dataclasses.dataclass(frozen=True)
class RaceReport:
    """Two conflicting same-timestamp accesses with no HB path."""

    time_ns: float
    obj: str
    attr: str
    kinds: str  # "W/W" | "R/W"
    first: AccessSite
    second: AccessSite

    def __str__(self) -> str:
        return (
            f"{self.kinds} race on {self.obj}.{self.attr} at "
            f"t={self.time_ns}ns: {self.first} vs {self.second} — "
            "no happens-before path; the tie-break order decides the "
            "outcome"
        )


class RaceSanitizer(KernelObserver):
    """Dynamic happens-before sanitizer for the simulation kernel.

    Usage::

        with racecheck.sanitize() as san:
            sim = Simulator()          # binds to the sanitizer
            model = san.watch(Model(sim))
            ...
            sim.run()
        for report in san.races():
            print(report)

    Watching swaps the object's class for a recording subclass; every
    read/write of the object's (data) attributes is logged with the
    current kernel task and the caller's source location.  Reports are
    deterministic: same workload, same accesses, same report bytes.
    """

    def __init__(self) -> None:
        self._tasks: typing.List[_TaskInfo] = [
            _TaskInfo(0, 0, 0.0, "<root>")]
        self._current = 0
        self._recording = True
        #: id(event) -> scheduling task, for queued events.
        self._event_parent: typing.Dict[int, int] = {}
        self._accesses: typing.List[Access] = []
        #: Strong refs keep id() keys valid; id(obj) -> (label, attrs).
        self._watched: typing.Dict[
            int, typing.Tuple[str, typing.FrozenSet[str], object]] = {}
        self._watched_classes: typing.Dict[type, type] = {}
        self._watch_ordinal = 0

    # ------------------------------------------------------------------
    # Kernel hooks
    # ------------------------------------------------------------------
    def begin_dispatch(self, event: "Event", now: float) -> None:
        # A new atomic task: everything until the next dispatch (the
        # event's callbacks, and the process segments they resume)
        # runs inside it.  Its actor is read here, off the callbacks,
        # so the wake-up path carries no hook.
        owner = event_owner(event)
        task_id = len(self._tasks)
        self._tasks.append(_TaskInfo(
            task_id, self._event_parent.pop(id(event), 0), now,
            event_label(event), owner.name if owner is not None else ""))
        self._current = task_id

    def on_schedule(self, event: "Event") -> None:
        self._event_parent[id(event)] = self._current

    # ------------------------------------------------------------------
    # Watched objects
    # ------------------------------------------------------------------
    def watch(self, obj: typing.Any,
              attrs: typing.Optional[typing.Iterable[str]] = None,
              name: typing.Optional[str] = None) -> typing.Any:
        """Log every read/write of ``obj``'s data attributes.

        ``attrs`` restricts observation to the named attributes;
        by default every data attribute discoverable at watch time
        (instance ``__dict__`` keys, or ``__slots__`` across the MRO)
        is observed.  ``name`` labels the object in reports (default
        ``ClassName#ordinal``, deterministic in watch order).  Returns
        ``obj`` for chaining.
        """
        if attrs is not None:
            watch_set = frozenset(attrs)
        else:
            watch_set = frozenset(self._data_attrs(obj))
        self._watch_ordinal += 1
        label = name or f"{type(obj).__name__}#{self._watch_ordinal}"
        cls = type(obj)
        watched_cls = self._watched_classes.get(cls)
        if watched_cls is None:
            watched_cls = self._build_watched_class(cls)
            self._watched_classes[cls] = watched_cls
        obj.__class__ = watched_cls
        self._watched[id(obj)] = (label, watch_set, obj)
        return obj

    @staticmethod
    def _data_attrs(obj: typing.Any) -> typing.Set[str]:
        """Data attributes of ``obj``: instance dict or MRO slots."""
        found: typing.Set[str] = set()
        instance_dict = getattr(obj, "__dict__", None)
        if instance_dict:
            found.update(instance_dict)
        for klass in type(obj).__mro__:
            for slot in getattr(klass, "__slots__", ()):
                found.add(slot)
        return {attr for attr in found
                if not (attr.startswith("__") and attr.endswith("__"))}

    def _build_watched_class(self, cls: type) -> type:
        sanitizer = self
        base_get = cls.__getattribute__
        base_set = cls.__setattr__

        def __getattribute__(inner: typing.Any, attr: str) -> typing.Any:
            value = base_get(inner, attr)
            sanitizer._record(inner, attr, "read")
            return value

        def __setattr__(inner: typing.Any, attr: str,
                        value: typing.Any) -> None:
            base_set(inner, attr, value)
            sanitizer._record(inner, attr, "write")

        namespace: typing.Dict[str, typing.Any] = {
            "__getattribute__": __getattribute__,
            "__setattr__": __setattr__,
        }
        if hasattr(cls, "__slots__"):
            namespace["__slots__"] = ()
        return type(f"Watched{cls.__name__}", (cls,), namespace)

    def _record(self, obj: typing.Any, attr: str, kind: str) -> None:
        if not self._recording:
            return
        entry = self._watched.get(id(obj))
        if entry is None or attr not in entry[1]:
            return
        frame = sys._getframe(2)
        self._accesses.append(Access(
            task=self._current, obj=entry[0], attr=attr, kind=kind,
            file=frame.f_code.co_filename, line=frame.f_lineno))

    def stop(self) -> None:
        """Stop recording accesses (watch hooks become no-ops)."""
        self._recording = False

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def accesses(self) -> typing.Tuple[Access, ...]:
        """Every recorded attribute access, in execution order."""
        return tuple(self._accesses)

    def task_label(self, task_id: int) -> str:
        """Display label of one task."""
        return self._tasks[task_id].label

    def happens_before(self, first: int, second: int) -> bool:
        """True iff task ``first`` is a causal ancestor of ``second``.

        The graph is a tree (one scheduling parent per task) and task
        ids increase in processing order, so the test is a parent walk.
        """
        if first == second:
            return True
        current = second
        while current > first:
            current = self._tasks[current].parent
        return current == first

    # ------------------------------------------------------------------
    # Race detection
    # ------------------------------------------------------------------
    def races(self) -> typing.List[RaceReport]:
        """Conflicting same-timestamp accesses with no HB path.

        Two accesses conflict when they touch the same (object,
        attribute) at the same simulated timestamp from different
        tasks, at least one is a write, and neither task
        happens-before the other.  Reports are deduplicated per
        (object, attribute, site pair) and sorted deterministically.
        """
        groups: typing.Dict[
            typing.Tuple[float, str, str], typing.List[Access]] = {}
        for access in self._accesses:
            key = (self._tasks[access.task].time_ns, access.obj,
                   access.attr)
            groups.setdefault(key, []).append(access)
        seen: typing.Set[typing.Tuple[str, ...]] = set()
        reports: typing.List[RaceReport] = []
        for (time_ns, obj, attr), accesses in groups.items():
            by_task: typing.Dict[int, typing.List[Access]] = {}
            for access in accesses:
                by_task.setdefault(access.task, []).append(access)
            task_ids = sorted(by_task)
            for i, first_task in enumerate(task_ids):
                for second_task in task_ids[i + 1:]:
                    first = self._pick(by_task[first_task])
                    second = self._pick(by_task[second_task])
                    if first.kind == "read" and second.kind == "read":
                        continue
                    if self.happens_before(first_task, second_task):
                        continue
                    kinds = ("W/W" if first.kind == second.kind
                             else "R/W")
                    dedupe = (obj, attr, kinds, first.site, second.site)
                    if dedupe in seen:
                        continue
                    seen.add(dedupe)
                    reports.append(RaceReport(
                        time_ns=time_ns, obj=obj, attr=attr, kinds=kinds,
                        first=self._site(first), second=self._site(second)))
        reports.sort(key=lambda r: (r.time_ns, r.obj, r.attr,
                                    r.first.line, r.second.line))
        return reports

    @staticmethod
    def _pick(accesses: typing.List[Access]) -> Access:
        """Representative access of one task: first write, else first."""
        for access in accesses:
            if access.kind == "write":
                return access
        return accesses[0]

    def _site(self, access: Access) -> AccessSite:
        task = self._tasks[access.task]
        return AccessSite(kind=access.kind, file=access.file,
                          line=access.line, task_label=task.label,
                          actor=task.actor)


@contextlib.contextmanager
def sanitize() -> typing.Iterator[RaceSanitizer]:
    """Install a fresh :class:`RaceSanitizer` ambiently for the body.

    Simulators constructed inside the ``with`` block bind to it.  On
    exit, recording stops, so post-run inspection of watched objects
    (asserts, report printing) does not append accesses.
    """
    sanitizer = RaceSanitizer()
    with use_sanitizer(sanitizer):
        yield sanitizer
    sanitizer.stop()


def format_races(reports: typing.Sequence[RaceReport]) -> str:
    """Stable text rendering of a race report list."""
    if not reports:
        return "no same-timestamp races detected"
    lines = [str(report) for report in reports]
    lines.append(f"{len(reports)} same-timestamp race(s)")
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Tie-break shuffle oracle
# ----------------------------------------------------------------------
_ADDRESS_RE = re.compile(r"0x[0-9a-fA-F]+")


def _canonical(value: typing.Any,
               seen: typing.Optional[typing.Set[int]] = None
               ) -> typing.Any:
    """JSON-representable canonical form of arbitrary result objects.

    Dict keys sort at dump time; dataclasses flatten to field dicts;
    sets sort; unknown objects fall back to ``repr`` with memory
    addresses scrubbed, so the fingerprint is stable across processes.
    """
    if seen is None:
        seen = set()
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if id(value) in seen:
        return "<cycle>"
    seen = seen | {id(value)}
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {field.name: _canonical(getattr(value, field.name), seen)
                for field in dataclasses.fields(value)}
    if isinstance(value, dict):
        return {str(key): _canonical(item, seen)
                for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_canonical(item, seen) for item in value]
    if isinstance(value, (set, frozenset)):
        return sorted(
            _ADDRESS_RE.sub("0x-", repr(item)) for item in value)
    to_dict = getattr(value, "to_dict", None)
    if callable(to_dict):
        return _canonical(to_dict(), seen)
    return _ADDRESS_RE.sub("0x-", repr(value))


def canonical_fingerprint(value: typing.Any) -> str:
    """Byte-stable fingerprint of a workload's final stats."""
    return json.dumps(_canonical(value), sort_keys=True,
                      separators=(",", ":"))


def _first_divergence(baseline: str, candidate: str,
                      context: int = 40) -> str:
    """Locate and excerpt the first differing byte of two fingerprints."""
    limit = min(len(baseline), len(candidate))
    index = next((i for i in range(limit)
                  if baseline[i] != candidate[i]), limit)
    start = max(0, index - context)
    return (
        f"first divergence at byte {index}: "
        f"fifo[...{baseline[start:index + context]}...] vs "
        f"shuffled[...{candidate[start:index + context]}...]"
    )


@dataclasses.dataclass(frozen=True)
class TieBreakMismatch:
    """One shuffled run whose stats diverged from FIFO order."""

    seed: int
    divergence: str

    def __str__(self) -> str:
        return f"seed {self.seed}: {self.divergence}"


@dataclasses.dataclass(frozen=True)
class TieBreakCertificate:
    """Outcome of one tie-break-independence certification."""

    subject: str
    runs: int
    base_seed: int
    independent: bool
    digest: str
    mismatches: typing.Tuple[TieBreakMismatch, ...]

    def summary(self) -> str:
        """One-paragraph human rendering."""
        if self.independent:
            return (
                f"{self.subject}: tiebreak-independent across "
                f"{self.runs} seeded same-timestamp permutations "
                f"(stats digest {self.digest})")
        lines = [
            f"{self.subject}: tie-break DEPENDENT — "
            f"{len(self.mismatches)}/{self.runs} shuffled runs diverged "
            "from FIFO order:"
        ]
        lines.extend(f"  {mismatch}" for mismatch in self.mismatches)
        return "\n".join(lines)


def certify_tiebreak_independence(
        workload: typing.Callable[[], typing.Any],
        *,
        subject: str = "workload",
        runs: int = 5,
        seed: int = 0,
        fingerprint: typing.Callable[[typing.Any],
                                     str] = canonical_fingerprint,
) -> TieBreakCertificate:
    """Empirically certify (or refute) tie-break independence.

    Runs ``workload`` once under FIFO tie-break order, then ``runs``
    more times with distinct seeded same-timestamp shuffles, and diffs
    the ``fingerprint`` of each return value byte-for-byte against the
    FIFO run.  ``workload`` must be self-contained (build its own
    simulator per call — the same contract as the determinism harness).
    """
    if runs < 1:
        raise ValueError(f"need at least 1 shuffled run, got {runs}")
    baseline = fingerprint(workload())
    mismatches: typing.List[TieBreakMismatch] = []
    for offset in range(runs):
        run_seed = seed + offset + 1
        with use_tiebreak(run_seed):
            candidate = fingerprint(workload())
        if candidate != baseline:
            mismatches.append(TieBreakMismatch(
                seed=run_seed,
                divergence=_first_divergence(baseline, candidate)))
    return TieBreakCertificate(
        subject=subject,
        runs=runs,
        base_seed=seed,
        independent=not mismatches,
        digest=hashlib.sha256(baseline.encode("utf-8")).hexdigest()[:16],
        mismatches=tuple(mismatches))
