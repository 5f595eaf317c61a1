"""Trace exporters: Perfetto/Chrome JSON, JSON-lines span log, validation.

Two consumers, one recording:

* **Perfetto / chrome://tracing** — :func:`write_perfetto` emits the
  Chrome Trace Event JSON object format (``{"traceEvents": [...]}``).
  Each distinct tracer *scope* becomes a Perfetto process; each track
  (``ch0.m0.p3``, ``ch0.bus``, ``pe2``, ...) becomes a named thread in
  that process.  Synchronous spans export as ``"X"`` complete events,
  in-flight request spans as ``"b"``/``"e"`` async pairs, instants as
  ``"i"``.  Timestamps are simulated nanoseconds divided by 1000 (the
  format's unit is microseconds; ``displayTimeUnit`` stays ``ns``).

* **Span log** — :func:`write_spanlog` emits one JSON object per line
  with a ``type`` discriminator (``span`` / ``instant`` / ``command``).
  Command lines carry the LPDDR2-NVM :class:`CommandRecord` payloads,
  each naming the scope of the run that issued it, so the same file
  feeds ``repro.analysis``'s protocol conformance checker — one
  capture, both analyses.  :func:`spanlog_spans` and
  :func:`spanlog_commands` read the two kinds back.

:func:`validate_perfetto` and :func:`validate_spanlog` are the
structural checks used by CI, ``python -m repro.telemetry validate``
and, for span logs, ``python -m repro.analysis --trace``.
"""

from __future__ import annotations

import json
import typing

from repro.pram.commands import CommandRecord
from repro.telemetry.tracer import RecordingTracer, Span

#: Event phases the validator accepts (the subset we emit).
_KNOWN_PHASES = frozenset({"X", "B", "E", "b", "e", "i", "M", "C"})

#: The ``type`` discriminators of span-log lines.
_SPANLOG_TYPES = ("span", "instant", "command")


def _track_order(tracer: RecordingTracer) -> typing.Dict[
        typing.Tuple[str, str], typing.Tuple[int, int]]:
    """Stable (scope, track) -> (pid, tid) assignment.

    Scopes are numbered in first-appearance order starting at pid 1;
    tracks within a scope likewise from tid 1.  Determinism of the
    export follows directly from determinism of the recording.
    """
    pids: typing.Dict[str, int] = {}
    tids: typing.Dict[typing.Tuple[str, str], typing.Tuple[int, int]] = {}
    per_scope: typing.Dict[str, int] = {}
    for span in list(tracer.spans) + list(tracer.instants):
        scope = span.scope
        if scope not in pids:
            pids[scope] = len(pids) + 1
            per_scope[scope] = 0
        key = (scope, span.track)
        if key not in tids:
            per_scope[scope] += 1
            tids[key] = (pids[scope], per_scope[scope])
    return tids


def perfetto_events(tracer: RecordingTracer
                    ) -> typing.List[typing.Dict[str, typing.Any]]:
    """Chrome Trace Event list for everything the tracer recorded."""
    tids = _track_order(tracer)

    events: typing.List[typing.Dict[str, typing.Any]] = []
    seen_pids: typing.Set[int] = set()
    for (scope, track), (pid, tid) in sorted(
            tids.items(), key=lambda item: item[1]):
        if pid not in seen_pids:
            seen_pids.add(pid)
            events.append({
                "ph": "M", "name": "process_name", "pid": pid, "tid": 0,
                "args": {"name": scope or "repro"},
            })
        events.append({
            "ph": "M", "name": "thread_name", "pid": pid, "tid": tid,
            "args": {"name": track},
        })

    slices: typing.List[typing.Dict[str, typing.Any]] = []
    for span in tracer.spans:
        pid, tid = tids[(span.scope, span.track)]
        ts = span.start_ns / 1000.0
        if span.asynchronous:
            common = {
                "cat": span.track, "name": span.name,
                "id": span.span_id, "pid": pid, "tid": tid,
            }
            begin = dict(common)
            begin.update({"ph": "b", "ts": ts, "args": dict(span.args)})
            end = dict(common)
            end.update({"ph": "e", "ts": span.end_ns / 1000.0})
            slices.append(begin)
            slices.append(end)
        else:
            slices.append({
                "ph": "X", "name": span.name, "cat": span.track,
                "ts": ts, "dur": (span.end_ns - span.start_ns) / 1000.0,
                "pid": pid, "tid": tid, "args": dict(span.args),
            })
    for span in tracer.instants:
        pid, tid = tids[(span.scope, span.track)]
        slices.append({
            "ph": "i", "name": span.name, "cat": span.track,
            "ts": span.start_ns / 1000.0, "pid": pid, "tid": tid,
            "s": "t", "args": dict(span.args),
        })

    # Stable sort: viewers expect non-decreasing ts; ties keep emission
    # order so nesting ("X" parent before child at the same ts) survives.
    slices.sort(key=lambda event: event["ts"])
    return events + slices


def perfetto_document(tracer: RecordingTracer
                      ) -> typing.Dict[str, typing.Any]:
    """The complete Perfetto-loadable JSON object."""
    return {
        "traceEvents": perfetto_events(tracer),
        "displayTimeUnit": "ns",
        "otherData": {"producer": "repro.telemetry"},
    }


def write_perfetto(tracer: RecordingTracer, path: str) -> None:
    """Serialize :func:`perfetto_document` to ``path``."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(perfetto_document(tracer), handle, indent=None,
                  separators=(",", ":"))
        handle.write("\n")


def validate_perfetto(document: typing.Any) -> typing.List[str]:
    """Structural check of a Chrome Trace Event document.

    Returns a list of problems (empty means valid).  Checks the
    container shape, per-event required fields by phase, and that
    timestamps are non-negative numbers.
    """
    problems: typing.List[str] = []
    if not isinstance(document, dict):
        return [f"top level must be an object, got {type(document).__name__}"]
    events = document.get("traceEvents")
    if not isinstance(events, list):
        return ["missing or non-list 'traceEvents'"]
    if not events:
        problems.append("'traceEvents' is empty")
    for index, event in enumerate(events):
        where = f"traceEvents[{index}]"
        if not isinstance(event, dict):
            problems.append(f"{where}: not an object")
            continue
        phase = event.get("ph")
        if phase not in _KNOWN_PHASES:
            problems.append(f"{where}: unknown phase {phase!r}")
            continue
        if not isinstance(event.get("name"), str) or not event["name"]:
            problems.append(f"{where}: missing event name")
        if not isinstance(event.get("pid"), int):
            problems.append(f"{where}: missing integer pid")
        if phase == "M":
            continue
        ts = event.get("ts")
        if not isinstance(ts, (int, float)) or ts < 0:
            problems.append(f"{where}: bad ts {ts!r}")
        if phase == "X":
            dur = event.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                problems.append(f"{where}: bad dur {dur!r}")
        if phase in ("b", "e") and "id" not in event:
            problems.append(f"{where}: async event without id")
        if phase == "i" and event.get("s") not in (None, "t", "p", "g"):
            problems.append(f"{where}: bad instant scope {event.get('s')!r}")
    return problems


# ----------------------------------------------------------------------
# JSON-lines span log (shared with repro.analysis)
# ----------------------------------------------------------------------
def spanlog_lines(tracer: RecordingTracer
                  ) -> typing.Iterator[typing.Dict[str, typing.Any]]:
    """All recorded items as span-log dicts, in simulated-time order."""
    items: typing.List[typing.Tuple[float, int,
                                    typing.Dict[str, typing.Any]]] = []
    for span in tracer.spans:
        items.append((span.start_ns, span.span_id,
                      {"type": "span", **span.to_dict()}))
    for span in tracer.instants:
        items.append((span.start_ns, span.span_id,
                      {"type": "instant", **span.to_dict()}))
    for order, record in enumerate(tracer.commands):
        items.append((float(record.time), order,
                      {"type": "command", "record": record.to_dict()}))
    items.sort(key=lambda item: (item[0], item[1]))
    for _, _, line in items:
        yield line


def write_spanlog(tracer: RecordingTracer, path: str) -> None:
    """One JSON object per line; ``type`` discriminates the payload."""
    with open(path, "w", encoding="utf-8") as handle:
        for line in spanlog_lines(tracer):
            handle.write(json.dumps(line, separators=(",", ":")))
            handle.write("\n")


def load_spanlog(path: str) -> typing.List[typing.Dict[str, typing.Any]]:
    """Parse a span-log file back into its line dicts."""
    lines: typing.List[typing.Dict[str, typing.Any]] = []
    with open(path, encoding="utf-8") as handle:
        for raw in handle:
            raw = raw.strip()
            if raw:
                lines.append(json.loads(raw))
    return lines


def validate_spanlog(path: str) -> typing.List[str]:
    """Line-structure check of a span log (empty means valid).

    Every line must be an object with a known ``type``; span and
    instant lines need a track, and a command line's record must parse
    as a :class:`CommandRecord` whose fields hold numbers where the
    record has numbers.
    """
    try:
        lines = load_spanlog(path)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as error:
        return [f"{path}: unreadable span log: {error}"]
    if not lines:
        return [f"{path}: span log is empty"]
    problems = []
    for number, line in enumerate(lines, start=1):
        kind = line.get("type") if isinstance(line, dict) else None
        if kind not in _SPANLOG_TYPES:
            problems.append(f"{path}:{number}: unknown type {kind!r}")
        elif kind == "command":
            try:
                record = CommandRecord.from_dict(line["record"])
            except (KeyError, TypeError, ValueError) as error:
                problems.append(
                    f"{path}:{number}: unparseable command record: "
                    f"{error!r}")
            else:
                if not _well_typed(record):
                    problems.append(
                        f"{path}:{number}: command record field of the "
                        f"wrong type: {line['record']}")
        elif "track" not in line:
            problems.append(f"{path}:{number}: {kind} without track")
    return problems


def _well_typed(record: CommandRecord) -> bool:
    """Whether the fields a conformance replay compares hold numbers."""
    rows = (record.buffer_id, record.partition, record.row,
            record.upper_row, record.lower_row)
    return (isinstance(record.time, (int, float))
            and isinstance(record.channel, int)
            and isinstance(record.module, int)
            and isinstance(record.scope, str)
            and all(value is None or isinstance(value, int)
                    for value in rows))


def spanlog_spans(path: str) -> typing.List[Span]:
    """The ``span`` lines of a span log, reconstructed as :class:`Span`."""
    spans = []
    for line in load_spanlog(path):
        if line.get("type") != "span":
            continue
        spans.append(Span(
            name=line["name"], track=line["track"],
            start_ns=line["start_ns"], end_ns=line["end_ns"],
            scope=line.get("scope", ""),
            asynchronous=bool(line.get("asynchronous", False)),
            span_id=int(line.get("span_id", 0)),
            args=dict(line.get("args", {}))))
    return spans


def spanlog_commands(path: str) -> typing.List[CommandRecord]:
    """The ``command`` lines of a span log, as :class:`CommandRecord`."""
    return [CommandRecord.from_dict(line["record"])
            for line in load_spanlog(path) if line.get("type") == "command"]
