"""Span tracing for the DRAM-less stack, with a zero-overhead null default.

Every component of the simulator (kernel, channel controllers, PRAM
modules, PEs, PCIe links) calls into a :class:`Tracer`.  The default
tracer is the no-op :data:`NULL_TRACER`: its hooks do nothing and
allocate nothing, and every hot path guards emission behind the
``tracer.enabled`` flag, so an untraced simulation pays only one
attribute load per instrumented site.

Tracers are *ambient*: components resolve :func:`current_tracer` at
construction time, so an experiment can be traced end to end without
threading a tracer argument through every constructor::

    tracer = RecordingTracer()
    with use_tracer(tracer):
        sim = Simulator()
        subsystem = PramSubsystem(sim)   # picks the tracer up
        ...
    write_perfetto(tracer, "trace.json")

The ambient slot is a :class:`contextvars.ContextVar`, not module or
class state, so two concurrent harness uses (threads, nested captures)
never clobber each other — each context sees its own tracer and
token-based restoration unwinds nesting correctly.

Spans carry **simulated** nanosecond timestamps (``Simulator.now``),
never wall-clock time, so recording a trace cannot perturb or be
perturbed by host scheduling.
"""

from __future__ import annotations

import contextlib
import contextvars
import dataclasses
import typing


@dataclasses.dataclass
class Span:
    """One closed interval of simulated time on one named track.

    ``track`` identifies the hardware lane the span belongs to
    (``ch0.m0.p3``, ``ch0.bus``, ``pe2``, ``pcie.offload``, ...);
    ``scope`` groups tracks into a Perfetto "process" (one scope per
    system/policy run).  ``asynchronous`` marks in-flight request spans
    that may overlap on one track and export as Perfetto async slices.
    """

    name: str
    track: str
    start_ns: float
    end_ns: float
    scope: str = ""
    asynchronous: bool = False
    span_id: int = 0
    args: typing.Dict[str, typing.Any] = dataclasses.field(
        default_factory=dict)

    def to_dict(self) -> typing.Dict[str, typing.Any]:
        """JSON-serializable representation (span-log lines)."""
        return {
            "name": self.name,
            "track": self.track,
            "start_ns": self.start_ns,
            "end_ns": self.end_ns,
            "scope": self.scope,
            "asynchronous": self.asynchronous,
            "span_id": self.span_id,
            "args": dict(self.args),
        }


class Tracer:
    """The tracing interface — and itself the zero-overhead null tracer.

    All hooks are no-ops; subclasses override the ones they care about
    and set :attr:`enabled` to True.  Instrumented code guards every
    call site with ``if tracer.enabled:`` so a disabled tracer costs a
    single attribute load and never constructs span objects, labels, or
    argument dicts.
    """

    #: Hot paths branch on this before building any span arguments.
    enabled: bool = False

    def emit(self, name: str, track: str, start_ns: float, end_ns: float,
             asynchronous: bool = False,
             **args: typing.Any) -> None:
        """Record one complete span of simulated time."""

    def instant(self, name: str, track: str, ts_ns: float,
                **args: typing.Any) -> None:
        """Record a zero-duration marker."""

    def kernel_event(self, ts_ns: float, label: str) -> None:
        """One DES kernel event was processed (``Simulator.step``)."""

    def command(self, record: typing.Any) -> None:
        """One LPDDR2-NVM :class:`CommandRecord` was issued.

        Recording tracers keep these so the span log doubles as a
        protocol-conformance trace (``repro.analysis``).
        """

    def scope(self, label: str) -> typing.ContextManager[typing.Any]:
        """Group subsequent spans under a named scope (no-op here)."""
        return _NULL_SCOPE


#: Reusable no-op context manager handed out by the null tracer's
#: ``scope`` — calling ``scope()`` on a disabled tracer allocates
#: nothing.
_NULL_SCOPE: typing.ContextManager[None] = contextlib.nullcontext()

#: The process-wide default tracer.  All hooks are no-ops.
NULL_TRACER = Tracer()


class KernelEventRecorder(Tracer):
    """Minimal tracer that records only kernel events into a sink.

    Used by the determinism harness: the sink receives
    ``(timestamp, label)`` tuples exactly as the seed's trace format
    did, so trace diffing is unchanged.
    """

    enabled = True

    def __init__(self, sink: typing.List[typing.Tuple[float, str]]) -> None:
        self.sink = sink

    def kernel_event(self, ts_ns: float, label: str) -> None:
        self.sink.append((ts_ns, label))


class RecordingTracer(Tracer):
    """Tracer that stores every span/instant/command for export.

    Purely observational: recording mutates only the tracer's own
    lists, so enabling it cannot change simulated timing or ordering
    (the determinism harness verifies this).  It keeps no kernel-event
    stream, so a simulator attaches no kernel-event feed for it.
    """

    enabled = True

    def __init__(self) -> None:
        self.spans: typing.List[Span] = []
        self.instants: typing.List[Span] = []
        self.commands: typing.List[typing.Any] = []
        # The last span/instant id handed out; spans and instants share
        # one sequence.  A plain int, so the tracer pickles as it is.
        self._last_id = 0
        self._scopes: typing.List[str] = []

    # ------------------------------------------------------------------
    def emit(self, name: str, track: str, start_ns: float, end_ns: float,
             asynchronous: bool = False,
             **args: typing.Any) -> None:
        self._last_id += 1
        self.spans.append(Span(
            name=name, track=track, start_ns=start_ns, end_ns=end_ns,
            scope=self._current_scope(), asynchronous=asynchronous,
            span_id=self._last_id, args=args))

    def instant(self, name: str, track: str, ts_ns: float,
                **args: typing.Any) -> None:
        self._last_id += 1
        self.instants.append(Span(
            name=name, track=track, start_ns=ts_ns, end_ns=ts_ns,
            scope=self._current_scope(), span_id=self._last_id,
            args=args))

    def command(self, record: typing.Any) -> None:
        self.commands.append(record)

    @contextlib.contextmanager
    def scope(self, label: str) -> typing.Iterator["RecordingTracer"]:
        """All spans emitted inside group under ``label``.

        Scopes nest with ``/`` separators and export as one Perfetto
        process per distinct scope path.
        """
        self._scopes.append(label)
        try:
            yield self
        finally:
            self._scopes.pop()

    def merge(self, other: "RecordingTracer") -> None:
        """Append another tracer's record (one cell's, in cell order).

        ``other``'s ids shift past the ids this tracer has handed out,
        so the merged stream carries the ids a serial run would have
        assigned, span/instant interleaving included, and this tracer's
        next id follows the last one claimed.  Scopes nest under the
        current scope, as if ``other`` had recorded inside it.  Spans
        are copied; ``other`` is left as it was.
        """
        base = self._last_id
        outer = self._current_scope()
        for records, sink in ((other.spans, self.spans),
                              (other.instants, self.instants)):
            sink.extend(dataclasses.replace(
                span, span_id=base + span.span_id,
                scope="/".join(filter(None, (outer, span.scope))))
                for span in records)
        self.commands.extend(other.commands)
        self._last_id = base + other._last_id

    # ------------------------------------------------------------------
    def _current_scope(self) -> str:
        return "/".join(self._scopes)

    def __len__(self) -> int:
        return len(self.spans) + len(self.instants)


class MultiTracer(Tracer):
    """Fans every hook out to several tracers (explicit + ambient)."""

    def __init__(self, tracers: typing.Sequence[Tracer]) -> None:
        self.tracers = tuple(tracers)
        # A fan-out of disabled children must look disabled itself, or
        # instrumentation guarded by `tracer.enabled` pays the full
        # recording cost on untraced runs.
        self.enabled = any(tracer.enabled for tracer in self.tracers)

    def emit(self, name: str, track: str, start_ns: float, end_ns: float,
             asynchronous: bool = False,
             **args: typing.Any) -> None:
        for tracer in self.tracers:
            tracer.emit(name, track, start_ns, end_ns,
                        asynchronous=asynchronous, **args)

    def instant(self, name: str, track: str, ts_ns: float,
                **args: typing.Any) -> None:
        for tracer in self.tracers:
            tracer.instant(name, track, ts_ns, **args)

    def kernel_event(self, ts_ns: float, label: str) -> None:
        for tracer in self.tracers:
            tracer.kernel_event(ts_ns, label)

    def command(self, record: typing.Any) -> None:
        for tracer in self.tracers:
            tracer.command(record)

    @contextlib.contextmanager
    def scope(self, label: str) -> typing.Iterator["MultiTracer"]:
        with contextlib.ExitStack() as stack:
            for tracer in self.tracers:
                stack.enter_context(tracer.scope(label))
            yield self


def combine(*tracers: typing.Optional[Tracer]) -> Tracer:
    """Collapse several maybe-null tracers into one effective tracer."""
    active: typing.List[Tracer] = []
    for tracer in tracers:
        if tracer is None or not tracer.enabled:
            continue
        children = (tracer.tracers if isinstance(tracer, MultiTracer)
                    else (tracer,))
        for child in children:
            if not child.enabled:
                continue
            if any(child is seen for seen in active):
                continue
            active.append(child)
    if not active:
        return NULL_TRACER
    if len(active) == 1:
        return active[0]
    return MultiTracer(active)


# ----------------------------------------------------------------------
# Ambient tracer (context-local, not class-level)
# ----------------------------------------------------------------------
_AMBIENT: contextvars.ContextVar[Tracer] = contextvars.ContextVar(
    "repro_telemetry_tracer", default=NULL_TRACER)


def current_tracer() -> Tracer:
    """The context's ambient tracer (:data:`NULL_TRACER` by default)."""
    return _AMBIENT.get()


@contextlib.contextmanager
def use_tracer(tracer: Tracer) -> typing.Iterator[Tracer]:
    """Install ``tracer`` as the ambient tracer for the ``with`` body.

    Components (simulators, subsystems, PEs, links) constructed inside
    the body bind to it.  Token-based restoration makes nested and
    concurrent uses independent — the footgun the seed's class-level
    ``Simulator._trace_sink`` had.
    """
    token = _AMBIENT.set(tracer)
    try:
        yield tracer
    finally:
        _AMBIENT.reset(token)
