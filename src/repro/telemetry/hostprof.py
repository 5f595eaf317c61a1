"""Host wall-clock profiler: bucket attribution, census, flamegraphs.

The engine half lives in :mod:`repro.sim.hostprof` (observer base +
ambient helpers); this module is the collector and its export:

* :class:`HostProfiler` — a :class:`~repro.sim.hostprof.
  HostProfilerHook` that attributes every dispatch's host nanoseconds
  to a ``(component, process, phase, event-kind)`` bucket and counts
  the dispatch census (events per kind, schedule pushes per kind,
  callbacks per process, same-timestamp batch sizes in a
  :class:`~repro.sim.stats.Histogram`).  It is its own ambient
  *provider* (``create_hostprof`` returns ``self``), so one profiler
  accumulates across every simulator a run builds.
* The flamegraph export: speedscope JSON (https://speedscope.app),
  one 4-frame stack per bucket, plus its structural validator.
* :func:`render_flame` / :func:`render_summary` — terminal top-N views
  for ``python -m repro.telemetry flame`` and the experiments CLI.

Host time stays out of the BENCH trajectory, which holds simulated
metrics only: the calibrated ``bench/`` harness reads this collector's
totals, and the overhead *guards* in ``benchmarks/`` gate on ratios
measured interleaved on one host.

Attribution model
-----------------
The collector reads its clock when the engine's observed drain opens
and closes each ``run()`` (``begin_run``/``end_run``) and around each
dispatch (``begin_dispatch``/``end_dispatch``), timing the dispatch
``[start, end)``.  It keeps a cursor on that timeline: the gap before a
dispatch accrues to the kernel's own bucket (queue pops, clock writes —
:data:`KERNEL_BUCKET`), the dispatch itself to the event's bucket, so
the buckets *tile* the drain and their sum tracks end-to-end ``run()``
wall clock (the ≥95% attribution criterion the simulator benchmark
asserts).

Determinism: the hook's ``clock`` is injectable, so tests stub it with
a counter and every export becomes byte-reproducible.
"""

from __future__ import annotations

import json
import typing

from repro.sim.hostprof import HostClock, HostProfilerHook
from repro.sim.process import Process
from repro.sim.stats import Histogram

if typing.TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.event import Event

#: One attribution bucket: (component, process, phase, event kind).
BucketKey = typing.Tuple[str, str, str, str]

#: The kernel's own inter-dispatch work (queue management, clock
#: writes, hook bookkeeping): everything between dispatch segments.
KERNEL_BUCKET: BucketKey = ("kernel", "-", "drain", "-")

#: Schema tag stamped into every speedscope export.
SPEEDSCOPE_SCHEMA = "https://www.speedscope.app/file-format-schema.json"

#: Placeholder for an unattributable classification field.
UNKNOWN = "-"


def classify_event(event: "Event",
                   callbacks: typing.Sequence[typing.Callable[..., None]]
                   ) -> BucketKey:
    """Map one dispatched event to its attribution bucket.

    * **kind** — the event's class name, except the kernel-made plain
      events whose name marks their role (``*.bootstrap`` /
      ``*.passthrough``), which profile as their role: they are pure
      kernel glue, and a flamegraph full of bare ``Event`` frames says
      nothing.
    * **process / component / phase** — from the first pre-dispatch
      callback bound to a :class:`~repro.sim.process.Process` (the
      same scan the tracer's event labels use): the process name, and
      the owning class / method split of the generator's qualname
      (``ChannelController._read_chunk`` → component
      ``ChannelController``, phase ``_read_chunk``).  Module-level
      generators get component ``toplevel``.
    * events nobody waits on fall back to the kernel component with an
      ``idle`` phase — they cost only their own bookkeeping.
    """
    kind = type(event).__name__
    # Only plain events can carry a role; other kinds never build
    # their (lazy) label here.
    name = (getattr(event, "name", "") or "") if kind == "Event" else ""
    if name:
        for role in ("bootstrap", "passthrough"):
            if name == role or name.endswith("." + role):
                kind = role
                break
    for callback in callbacks:
        owner = getattr(callback, "__self__", None)
        if isinstance(owner, Process):
            qualname = getattr(owner._generator, "__qualname__", "")
            parts = [part for part in qualname.split(".")
                     if part and part != "<locals>"]
            if len(parts) > 1:
                component, phase = parts[0], parts[-1]
            elif parts:
                component, phase = "toplevel", parts[0]
            else:
                component, phase = "toplevel", owner.name or UNKNOWN
            return (component, owner.name or UNKNOWN, phase, kind)
    return ("kernel", UNKNOWN, "idle", kind)


class HostProfiler(HostProfilerHook):
    """Accumulating collector + ambient provider for host profiling.

    Install with :func:`repro.sim.hostprof.use_hostprof`; every
    simulator built inside the scope feeds this one instance
    (``create_hostprof`` returns ``self`` — the kernel is
    single-threaded, so sequential runs share the collector safely).
    """

    def __init__(self, clock: typing.Optional[HostClock] = None) -> None:
        if clock is not None:
            self.clock = clock  # type: ignore[method-assign]
        #: host ns per (component, process, phase, kind) bucket.
        self.buckets: typing.Dict[BucketKey, int] = {}
        #: dispatch count per bucket.
        self.bucket_counts: typing.Dict[BucketKey, int] = {}
        #: dispatch count per event kind (census).
        self.dispatches: typing.Dict[str, int] = {}
        #: `_schedule` admissions per event kind (census).
        self.schedules: typing.Dict[str, int] = {}
        #: callbacks dispatched per owning process name (census).
        self.callbacks: typing.Dict[str, int] = {}
        #: same-timestamp batch sizes (census).
        self.batch_sizes = Histogram("hostprof.batch_size")
        #: completed run() drains and their summed host ns.
        self.runs = 0
        self.run_ns = 0
        self._run_start = 0
        self._cursor = 0
        self._start = 0

    # -- kernel observer ------------------------------------------------
    def begin_run(self) -> None:
        self._run_start = self._cursor = self.clock()

    def end_run(self) -> None:
        host_ns = self.clock()
        tail = host_ns - self._cursor
        if tail > 0:
            self.buckets[KERNEL_BUCKET] = (
                self.buckets.get(KERNEL_BUCKET, 0) + tail)
        self.runs += 1
        self.run_ns += host_ns - self._run_start
        self._cursor = host_ns

    def begin_dispatch(self, event: "Event", now: float) -> None:
        self._start = self.clock()

    def end_dispatch(self, event: "Event",
                     callbacks: typing.Sequence[typing.Callable[..., None]]
                     ) -> None:
        end_ns = self.clock()
        start_ns = self._start
        gap = start_ns - self._cursor
        if gap > 0:
            self.buckets[KERNEL_BUCKET] = (
                self.buckets.get(KERNEL_BUCKET, 0) + gap)
        key = classify_event(event, callbacks)
        self.buckets[key] = self.buckets.get(key, 0) + (end_ns - start_ns)
        self.bucket_counts[key] = self.bucket_counts.get(key, 0) + 1
        kind = key[3]
        self.dispatches[kind] = self.dispatches.get(kind, 0) + 1
        process = key[1]
        self.callbacks[process] = (
            self.callbacks.get(process, 0) + len(callbacks))
        self._cursor = end_ns

    def on_batch(self, size: int) -> None:
        self.batch_sizes.add(size)

    def on_schedule(self, event: "Event") -> None:
        kind = type(event).__name__
        self.schedules[kind] = self.schedules.get(kind, 0) + 1

    # -- ambient provider -----------------------------------------------
    def create_hostprof(self) -> "HostProfiler":
        """Providers mint hooks; this collector hands out itself."""
        return self

    # -- aggregates -----------------------------------------------------
    def total_ns(self) -> int:
        """Sum of every bucket — tiles the measured ``run()`` drains."""
        return sum(self.buckets.values())

    def attributed_fraction(self, measured_ns: float) -> float:
        """Share of an externally measured wall clock the buckets cover."""
        if measured_ns <= 0:
            return 0.0
        return self.total_ns() / measured_ns

    def component_totals(self) -> typing.Dict[str, int]:
        """Host ns per component, descending-friendly plain dict."""
        totals: typing.Dict[str, int] = {}
        for (component, _, _, _), ns in self.buckets.items():
            totals[component] = totals.get(component, 0) + ns
        return totals

    def census(self) -> typing.Dict[str, typing.Any]:
        """The host-time-free counts: identical serial vs ``--jobs N``."""
        return {
            "dispatches": dict(sorted(self.dispatches.items())),
            "schedules": dict(sorted(self.schedules.items())),
            "callbacks": dict(sorted(self.callbacks.items())),
            "batch_sizes": list(self.batch_sizes.samples),
            "bucket_counts": {";".join(key): count for key, count
                              in sorted(self.bucket_counts.items())},
        }

    # -- merge / payload ------------------------------------------------
    def merge(self, other: "HostProfiler") -> None:
        """Fold ``other`` (one cell's profiler) into this collector.

        Associative: sums and sample-list concatenation only, so any
        merge grouping produces the same totals, and merged in cell
        order it reproduces a serial run's census exactly.
        """
        for key, ns in other.buckets.items():
            self.buckets[key] = self.buckets.get(key, 0) + ns
        for key, count in other.bucket_counts.items():
            self.bucket_counts[key] = self.bucket_counts.get(key, 0) + count
        for mapping, theirs in ((self.dispatches, other.dispatches),
                                (self.schedules, other.schedules),
                                (self.callbacks, other.callbacks)):
            for name, count in theirs.items():
                mapping[name] = mapping.get(name, 0) + count
        for sample in other.batch_sizes.samples:
            self.batch_sizes.add(sample)
        self.runs += other.runs
        self.run_ns += other.run_ns

    def to_payload(self) -> typing.Dict[str, typing.Any]:
        """JSON-able snapshot (sorted, reproducible order), as the
        dashboard embeds it."""
        return {
            "runs": self.runs,
            "run_ns": self.run_ns,
            "buckets": [[list(key), ns] for key, ns
                        in sorted(self.buckets.items())],
            "bucket_counts": [[list(key), count] for key, count
                              in sorted(self.bucket_counts.items())],
            "dispatches": dict(sorted(self.dispatches.items())),
            "schedules": dict(sorted(self.schedules.items())),
            "callbacks": dict(sorted(self.callbacks.items())),
            "batch_sizes": list(self.batch_sizes.samples),
        }


# ----------------------------------------------------------------------
# Speedscope export
# ----------------------------------------------------------------------
def speedscope_document(profiler: HostProfiler,
                        name: str = "repro hostprof"
                        ) -> typing.Dict[str, typing.Any]:
    """The profile as a speedscope ``sampled`` document.

    Each bucket becomes one 4-frame stack (component → process →
    phase → kind) weighted by its host nanoseconds, so speedscope's
    left-heavy and sandwich views read directly as the attribution
    hierarchy.
    """
    frames: typing.List[typing.Dict[str, str]] = []
    frame_index: typing.Dict[str, int] = {}

    def frame(label: str) -> int:
        if label not in frame_index:
            frame_index[label] = len(frames)
            frames.append({"name": label})
        return frame_index[label]

    samples: typing.List[typing.List[int]] = []
    weights: typing.List[int] = []
    for key, ns in sorted(profiler.buckets.items()):
        if ns <= 0:
            continue
        samples.append([frame(label) for label in key])
        weights.append(ns)
    total = sum(weights)
    return {
        "$schema": SPEEDSCOPE_SCHEMA,
        "name": name,
        "exporter": "repro.telemetry.hostprof",
        "activeProfileIndex": 0,
        "shared": {"frames": frames},
        "profiles": [{
            "type": "sampled",
            "name": name,
            "unit": "nanoseconds",
            "startValue": 0,
            "endValue": total,
            "samples": samples,
            "weights": weights,
        }],
    }


def validate_speedscope(document: typing.Any) -> typing.List[str]:
    """Structural schema check; returns problem strings (empty = valid)."""
    problems: typing.List[str] = []
    if not isinstance(document, dict):
        return ["document is not a JSON object"]
    if document.get("$schema") != SPEEDSCOPE_SCHEMA:
        problems.append(f"$schema is {document.get('$schema')!r}, "
                        f"expected {SPEEDSCOPE_SCHEMA!r}")
    shared = document.get("shared")
    frames = shared.get("frames") if isinstance(shared, dict) else None
    if not isinstance(frames, list):
        problems.append("missing shared.frames array")
        frames = []
    for index, entry in enumerate(frames):
        if not isinstance(entry, dict) or not isinstance(
                entry.get("name"), str):
            problems.append(f"frame {index}: needs a string 'name'")
    profiles = document.get("profiles")
    if not isinstance(profiles, list) or not profiles:
        problems.append("missing non-empty profiles array")
        profiles = []
    for index, profile in enumerate(profiles):
        if not isinstance(profile, dict):
            problems.append(f"profile {index}: not an object")
            continue
        if profile.get("type") != "sampled":
            problems.append(f"profile {index}: type is "
                            f"{profile.get('type')!r}, expected 'sampled'")
            continue
        samples = profile.get("samples")
        weights = profile.get("weights")
        if not isinstance(samples, list) or not isinstance(weights, list):
            problems.append(f"profile {index}: needs samples and weights "
                            "arrays")
            continue
        if len(samples) != len(weights):
            problems.append(
                f"profile {index}: {len(samples)} samples vs "
                f"{len(weights)} weights")
        for position, stack in enumerate(samples):
            if not isinstance(stack, list) or not stack:
                problems.append(f"profile {index}: sample {position} is "
                                "not a non-empty stack")
                continue
            bad = [ref for ref in stack
                   if not isinstance(ref, int)
                   or not 0 <= ref < len(frames)]
            if bad:
                problems.append(f"profile {index}: sample {position} "
                                f"references unknown frames {bad}")
        span = (profile.get("endValue", 0)
                - profile.get("startValue", 0))
        total = sum(weight for weight in weights
                    if isinstance(weight, (int, float)))
        if total != span:
            problems.append(
                f"profile {index}: weights sum to {total}, "
                f"endValue - startValue is {span}")
    return problems


def write_speedscope(profiler: HostProfiler, path: str,
                     name: str = "repro hostprof") -> None:
    """Write the speedscope JSON flamegraph to ``path``."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(speedscope_document(profiler, name), handle,
                  indent=2, sort_keys=True)
        handle.write("\n")


def load_speedscope(path: str) -> typing.Dict[str, typing.Any]:
    """Load a speedscope JSON document written by :func:`write_speedscope`."""
    with open(path, encoding="utf-8") as handle:
        loaded = json.load(handle)
    if not isinstance(loaded, dict):
        raise ValueError(f"{path}: not a speedscope document")
    return loaded


# ----------------------------------------------------------------------
# Terminal rendering
# ----------------------------------------------------------------------
_BAR = "█"
_BAR_ASCII = "#"


def _fmt_host_ns(value: float) -> str:
    if value >= 1e9:
        return f"{value / 1e9:.3f} s"
    if value >= 1e6:
        return f"{value / 1e6:.3f} ms"
    if value >= 1e3:
        return f"{value / 1e3:.3f} us"
    return f"{value:.0f} ns"


def render_flame(document: typing.Dict[str, typing.Any], top: int = 20,
                 width: int = 40, ascii_: bool = False) -> str:
    """Top-N weighted stacks of a speedscope document, as bars.

    Works on any valid single-profile ``sampled`` document, so it can
    render exports from other tools too — not just our own.
    """
    frames = document.get("shared", {}).get("frames", [])
    profile = document.get("profiles", [{}])[0]
    samples = profile.get("samples", [])
    weights = profile.get("weights", [])
    rows = sorted(
        ((";".join(frames[ref]["name"] for ref in stack), weight)
         for stack, weight in zip(samples, weights)),
        key=lambda row: (-row[1], row[0]))
    total = sum(weight for _, weight in rows)
    glyph = _BAR_ASCII if ascii_ else _BAR
    dash = "-" if ascii_ else "—"
    unit = profile.get("unit", "units")
    lines = [f"hostprof: {document.get('name', '?')} {dash} "
             f"{_fmt_host_ns(total) if unit == 'nanoseconds' else total} "
             f"over {len(rows)} bucket(s)"]
    shown = rows[:top]
    label_width = max((len(label) for label, _ in shown), default=5)
    for label, weight in shown:
        share = weight / total if total else 0.0
        bar = glyph * max(1, round(share * width))
        amount = (_fmt_host_ns(weight) if unit == "nanoseconds"
                  else str(weight))
        lines.append(f"  {label:<{label_width}}  {amount:>11}  "
                     f"{share:6.1%}  {bar}")
    dropped = len(rows) - len(shown)
    if dropped > 0:
        rest = sum(weight for _, weight in rows[top:])
        rest_label = (_fmt_host_ns(rest) if unit == "nanoseconds"
                      else str(rest))
        lines.append(f"  ... {dropped} more bucket(s), {rest_label}")
    return "\n".join(lines)


def render_summary(profiler: HostProfiler, top: int = 10,
                   ascii_: bool = False) -> str:
    """Terminal summary: census line + top components + top buckets."""
    total = profiler.total_ns()
    dispatches = sum(profiler.dispatches.values())
    schedules = sum(profiler.schedules.values())
    batches = len(profiler.batch_sizes)
    lines = [
        f"host profile: {_fmt_host_ns(total)} attributed over "
        f"{profiler.runs} run(s)",
        f"  census: {dispatches} dispatches, {schedules} schedules, "
        f"{batches} batches"
        + (f" (mean size {profiler.batch_sizes.mean:.2f})"
           if batches else ""),
    ]
    components = sorted(profiler.component_totals().items(),
                        key=lambda item: (-item[1], item[0]))
    glyph = _BAR_ASCII if ascii_ else _BAR
    if components:
        lines.append("  by component:")
        name_width = max(len(name) for name, _ in components)
        for name, ns in components:
            share = ns / total if total else 0.0
            lines.append(f"    {name:<{name_width}}  "
                         f"{_fmt_host_ns(ns):>11}  {share:6.1%}  "
                         f"{glyph * max(1, round(share * 30))}")
    hot = sorted(profiler.buckets.items(),
                 key=lambda item: (-item[1], item[0]))[:top]
    if hot:
        lines.append(f"  hottest buckets (top {len(hot)}):")
        label_width = max(len(";".join(key)) for key, _ in hot)
        for key, ns in hot:
            count = profiler.bucket_counts.get(key, 0)
            lines.append(f"    {';'.join(key):<{label_width}}  "
                         f"{_fmt_host_ns(ns):>11}  "
                         f"({count} dispatch(es))")
    return "\n".join(lines)
