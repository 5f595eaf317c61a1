"""AST lint pass with simulator-specific rules.

The discrete-event kernel in :mod:`repro.sim` gives device models a lot
of rope: any generator can become a process, any float can become a
latency, and any shared attribute can be mutated between two ``yield``
points.  These rules mechanically check the conventions the codebase
relies on:

``SIM001``
    No wall-clock or ambient randomness inside device models.
    Importing ``time`` or ``datetime``, or calling module-level
    ``random`` functions (``random.random()``, ``random.shuffle()``,
    ...) makes simulations irreproducible.  Seeded generator instances
    (``random.Random(seed)``) are the sanctioned escape hatch.

``SIM002``
    Process generators may only yield :class:`~repro.sim.event.Event`
    subclasses.  A generator counts as a process body when any of its
    yields is a kernel event-factory call (``sim.timeout(...)``,
    ``sim.process(...)``, ``resource.request()``, ...).  In such a
    generator, yields of literals, arithmetic, comparisons, or bare
    ``yield`` are certain ``TypeError``\\ s at run time — the kernel
    rejects non-Event yields — so they are flagged statically.  Plain
    data generators (``yield row, offset, size``) are exempt.

``SIM003``
    Negative or non-numeric latencies passed to ``timeout()`` /
    ``_schedule()``.  A negative delay would travel backwards in time;
    a string or ``None`` is a unit error caught only deep in the heap.

``SIM004``
    Mutable default arguments (literals or ``list()`` / ``dict()`` /
    ``set()`` / ``bytearray()`` / ``collections.deque()`` calls).
    Defaults are evaluated once; device models sharing one hidden list
    across instances is a classic aliasing bug.

``SIM005``
    Heuristic race detector for DES processes: a generator that reads
    ``self.<attr>`` into a local, yields (other processes run), and
    then writes that stale local back into the same ``self.<attr>``
    without having acquired a :class:`~repro.sim.resource.Resource`
    (no ``.request()``/``.use()`` in the function) loses concurrent
    updates.  Mutating ``global`` state from a process generator is
    flagged unconditionally.  Atomic read-modify-writes
    (``self.count += 1``) never span a yield and are exempt.

    The check is interprocedural within a class: a snapshot taken
    through a helper (``x = self._load()`` where ``_load`` reads
    ``self.level``) and a write-back through a helper
    (``self._store(x)`` where ``_store`` assigns ``self.level``) are
    traced through non-generator method calls, as are Resource
    acquisitions performed inside helpers.

``SIM006``
    Unguarded shared-write family: two (or more) process-generator
    methods of one class plainly assign the same ``self.<attr>`` and
    none of them — directly or through a helper — acquires a Resource.
    When both processes run at the same simulated timestamp, the
    kernel's tie-break order decides the final value.  Augmented
    assignments (``self.n += 1``) are exempt: they are atomic within a
    task and accumulate commutatively.

``SIM007``
    Same-instant fan-out: a loop (or comprehension) with no
    intervening ``yield`` spawning ``sim.process(self.<m>(...))``
    where ``<m>`` is a generator method that plainly writes shared
    attributes without acquiring a Resource.  Every spawned process
    bootstraps at the *same* simulated instant, so their first
    segments race on the tie-break order.  Yielding inside the loop
    (staggered spawns) or guarding the writes exempts it.

``SIM008``
    A process spawned only to be waited on: ``yield <x>.process(<gen>)``,
    or ``all_of`` over ``<x>.process(...)`` calls (a list display, a
    comprehension, or a local bound to one and used only there).  Each
    spawn dispatches a bootstrap and a completion, and the condition a
    trigger of its own, for a body that runs alone in the meantime:
    ``yield from <gen>`` runs it inline, and ``sim.fork_join([...])``
    starts the children in place and joins them with one event.  A
    spawn whose extra same-instant hops decide an order the outputs
    depend on stays, marked ``# noqa: SIM008`` with the reason.

A trailing ``# noqa: SIMxxx`` comment suppresses a rule on that line.
The dynamic counterpart to SIM005–SIM007 is
:mod:`repro.analysis.racecheck`, which observes actual kernel runs.
"""

from __future__ import annotations

import ast
import dataclasses
import re
import typing
from pathlib import Path

#: Modules whose mere import into simulation code breaks determinism
#: or reproducibility (wall clock, host entropy).
_WALLCLOCK_MODULES = frozenset({"time", "datetime"})

#: The one attribute of :mod:`random` device models may touch: seeded
#: generator construction.
_ALLOWED_RANDOM_ATTRS = frozenset({"Random"})

#: Constructor calls that produce a fresh mutable object — evaluated
#: once when used as a default argument.
_MUTABLE_CALLS = frozenset({"list", "dict", "set", "bytearray"})
_MUTABLE_QUALIFIED_CALLS = frozenset({"deque", "defaultdict", "OrderedDict"})

_NOQA_RE = re.compile(r"#\s*noqa(?::\s*(?P<codes>[A-Z0-9, ]+))?", re.IGNORECASE)


@dataclasses.dataclass(frozen=True)
class LintViolation:
    """One rule hit at one source location."""

    path: str
    line: int
    code: str
    message: str

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: {self.code} {self.message}"


def _noqa_codes(source_line: str) -> typing.FrozenSet[str] | None:
    """Codes suppressed on this line; empty frozenset = suppress all."""
    match = _NOQA_RE.search(source_line)
    if match is None:
        return None
    codes = match.group("codes")
    if not codes:
        return frozenset()
    return frozenset(code.strip().upper() for code in codes.split(","))


class _Collector:
    """Accumulates violations, honouring per-line ``# noqa`` comments."""

    def __init__(self, path: str, source_lines: typing.Sequence[str]) -> None:
        self.path = path
        self._lines = source_lines
        self.violations: typing.List[LintViolation] = []

    def add(self, node: ast.AST, code: str, message: str) -> None:
        line = getattr(node, "lineno", 0)
        if 1 <= line <= len(self._lines):
            suppressed = _noqa_codes(self._lines[line - 1])
            if suppressed is not None and (
                    not suppressed or code in suppressed):
                return
        self.violations.append(LintViolation(self.path, line, code, message))


def _own_nodes(func: ast.AST) -> typing.Iterator[ast.AST]:
    """Nodes of ``func`` excluding nested function/lambda bodies."""
    stack: typing.List[ast.AST] = list(ast.iter_child_nodes(func))
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)):
            continue
        stack.extend(ast.iter_child_nodes(node))


def _is_generator(func: ast.AST) -> bool:
    """Does this function definition contain a yield of its own?"""
    return any(isinstance(node, (ast.Yield, ast.YieldFrom))
               for node in _own_nodes(func))


# ----------------------------------------------------------------------
# Individual rules
# ----------------------------------------------------------------------
def _check_sim001(tree: ast.Module, out: _Collector) -> None:
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                root = alias.name.split(".")[0]
                if root in _WALLCLOCK_MODULES:
                    out.add(node, "SIM001",
                            f"import of wall-clock module {root!r} breaks "
                            "simulation determinism")
        elif isinstance(node, ast.ImportFrom):
            root = (node.module or "").split(".")[0]
            if root in _WALLCLOCK_MODULES:
                out.add(node, "SIM001",
                        f"import from wall-clock module {root!r} breaks "
                        "simulation determinism")
            elif root == "random":
                names = ", ".join(alias.name for alias in node.names)
                out.add(node, "SIM001",
                        f"'from random import {names}' uses the shared "
                        "unseeded generator; construct random.Random(seed)")
        elif isinstance(node, ast.Attribute):
            if (isinstance(node.value, ast.Name)
                    and node.value.id == "random"
                    and node.attr not in _ALLOWED_RANDOM_ATTRS):
                out.add(node, "SIM001",
                        f"random.{node.attr} draws from the shared unseeded "
                        "generator; use a seeded random.Random instance")


#: Kernel factory methods whose results are Events; a generator that
#: yields one of these calls is (heuristically) a process body.
_EVENT_FACTORIES = frozenset({
    "timeout", "process", "fork_join", "all_of", "any_of", "event",
    "request", "put", "get",
})


def _is_process_generator(func: ast.AST) -> bool:
    for node in _own_nodes(func):
        if not isinstance(node, ast.Yield) or node.value is None:
            continue
        value = node.value
        if (isinstance(value, ast.Call)
                and isinstance(value.func, ast.Attribute)
                and value.func.attr in _EVENT_FACTORIES):
            return True
    return False


def _check_sim002(func: ast.AST, out: _Collector) -> None:
    if not _is_process_generator(func):
        return
    for node in _own_nodes(func):
        if not isinstance(node, ast.Yield):
            continue
        value = node.value
        if value is None:
            out.add(node, "SIM002",
                    "bare 'yield' sends None to the kernel; processes may "
                    "only yield Event instances")
        elif isinstance(value, (ast.Constant, ast.List, ast.Tuple, ast.Dict,
                                ast.Set, ast.JoinedStr, ast.BinOp,
                                ast.Compare, ast.BoolOp)):
            out.add(node, "SIM002",
                    f"yield of {type(value).__name__} can never be an "
                    "Event; processes may only yield Event instances")


def _negative_or_nonnumeric(arg: ast.expr) -> str | None:
    if isinstance(arg, ast.UnaryOp) and isinstance(arg.op, ast.USub):
        operand = arg.operand
        if (isinstance(operand, ast.Constant)
                and isinstance(operand.value, (int, float))
                and not isinstance(operand.value, bool)):
            return f"negative latency -{operand.value!r}"
    if isinstance(arg, ast.Constant):
        value = arg.value
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            return f"non-numeric latency {value!r}"
        if value != value:  # NaN literal via float("nan") is a Call, but
            return f"NaN latency {value!r}"  # pragma: no cover - defensive
    return None


def _check_sim003(tree: ast.Module, out: _Collector) -> None:
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        callee = node.func
        if not isinstance(callee, ast.Attribute):
            continue
        if callee.attr not in {"timeout", "_schedule"}:
            continue
        if not node.args:
            continue
        problem = _negative_or_nonnumeric(node.args[0])
        if problem is not None:
            out.add(node, "SIM003",
                    f"{problem} passed to {callee.attr}(); simulated delays "
                    "are non-negative nanoseconds")


def _is_mutable_default(default: ast.expr) -> bool:
    if isinstance(default, (ast.List, ast.Dict, ast.Set, ast.ListComp,
                            ast.DictComp, ast.SetComp)):
        return True
    if isinstance(default, ast.Call):
        callee = default.func
        if isinstance(callee, ast.Name) and callee.id in _MUTABLE_CALLS:
            return True
        if (isinstance(callee, ast.Attribute)
                and callee.attr in _MUTABLE_QUALIFIED_CALLS):
            return True
    return False


def _check_sim004(func: typing.Union[ast.FunctionDef, ast.AsyncFunctionDef],
                  out: _Collector) -> None:
    defaults = list(func.args.defaults) + [
        d for d in func.args.kw_defaults if d is not None]
    for default in defaults:
        if _is_mutable_default(default):
            out.add(default, "SIM004",
                    f"mutable default argument in {func.name}(); defaults "
                    "are evaluated once and shared across calls")


def _self_attr_target(node: ast.expr) -> str | None:
    if (isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"):
        return node.attr
    return None


def _attr_reads(expr: ast.expr) -> typing.Set[str]:
    """``self.<attr>`` names read anywhere inside ``expr``."""
    reads = set()
    for node in ast.walk(expr):
        attr = _self_attr_target(node) if isinstance(node, ast.expr) else None
        if attr is not None and isinstance(node.ctx, ast.Load):
            reads.add(attr)
    return reads


def _name_reads(expr: ast.expr) -> typing.Set[str]:
    """Local names read anywhere inside ``expr``."""
    return {node.id for node in ast.walk(expr)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}


@dataclasses.dataclass
class _MethodSummary:
    """Effect summary of one class method for interprocedural rules.

    ``reads``/``plain_writes``/``aug_writes`` are ``self.<attr>`` names;
    after :func:`_propagate_summaries`, effects of *non-generator*
    helper methods called as ``self.<helper>(...)`` are folded in
    (their bodies run inline in the caller's task).  Generator callees
    are excluded — calling one only builds a generator object; its body
    runs as a separate process.
    """

    name: str
    node: typing.Union[ast.FunctionDef, ast.AsyncFunctionDef]
    is_generator: bool
    reads: typing.Set[str] = dataclasses.field(default_factory=set)
    plain_writes: typing.Set[str] = dataclasses.field(default_factory=set)
    aug_writes: typing.Set[str] = dataclasses.field(default_factory=set)
    acquires: bool = False
    self_calls: typing.Set[str] = dataclasses.field(default_factory=set)
    #: Methods invoked as ``yield from self.<m>(...)`` — sub-generators
    #: that run inline in this method's process, not concurrent bodies.
    delegated_calls: typing.Set[str] = dataclasses.field(
        default_factory=set)


def _summarize_method(func: typing.Union[ast.FunctionDef,
                                         ast.AsyncFunctionDef]
                      ) -> _MethodSummary:
    summary = _MethodSummary(func.name, func, _is_generator(func))
    for node in _own_nodes(func):
        if isinstance(node, ast.Attribute):
            attr = _self_attr_target(node)
            if attr is not None:
                if isinstance(node.ctx, ast.Load):
                    summary.reads.add(attr)
                elif isinstance(node.ctx, ast.Store):
                    summary.plain_writes.add(attr)
        elif isinstance(node, ast.AugAssign):
            attr = _self_attr_target(node.target)
            if attr is not None:
                summary.aug_writes.add(attr)
                summary.reads.add(attr)
        elif isinstance(node, ast.Call):
            callee = node.func
            if isinstance(callee, ast.Attribute):
                if callee.attr in {"request", "use"}:
                    summary.acquires = True
                if (isinstance(callee.value, ast.Name)
                        and callee.value.id == "self"):
                    summary.self_calls.add(callee.attr)
        elif isinstance(node, ast.YieldFrom):
            value = node.value
            if (isinstance(value, ast.Call)
                    and isinstance(value.func, ast.Attribute)
                    and isinstance(value.func.value, ast.Name)
                    and value.func.value.id == "self"):
                summary.delegated_calls.add(value.func.attr)
    # ast.Store on an Attribute covers both plain assigns and AugAssign
    # targets; subtract the augmented ones so the two sets are disjoint.
    summary.plain_writes -= summary.aug_writes
    return summary


def _summarize_class(cls: ast.ClassDef
                     ) -> typing.Dict[str, _MethodSummary]:
    """Fixpoint effect summaries for every directly-defined method."""
    summaries = {
        node.name: _summarize_method(node)
        for node in cls.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    }
    changed = True
    while changed:
        changed = False
        for summary in summaries.values():
            for callee_name in summary.self_calls | summary.delegated_calls:
                callee = summaries.get(callee_name)
                if callee is None:
                    continue
                # Non-generator helpers run inline; generator callees
                # fold only when driven via ``yield from`` (delegation
                # also runs inline, in the caller's process).
                if callee.is_generator and (
                        callee_name not in summary.delegated_calls):
                    continue
                before = (len(summary.reads), len(summary.plain_writes),
                          len(summary.aug_writes), summary.acquires)
                summary.reads |= callee.reads
                summary.plain_writes |= callee.plain_writes
                summary.aug_writes |= callee.aug_writes
                summary.acquires = summary.acquires or callee.acquires
                after = (len(summary.reads), len(summary.plain_writes),
                         len(summary.aug_writes), summary.acquires)
                changed = changed or before != after
    return summaries


def _check_sim005(func: typing.Union[ast.FunctionDef, ast.AsyncFunctionDef],
                  out: _Collector,
                  summaries: typing.Optional[
                      typing.Dict[str, _MethodSummary]] = None) -> None:
    if not _is_generator(func):
        return
    own = list(_own_nodes(func))
    helpers = summaries or {}

    def _helper(call: ast.Call) -> _MethodSummary | None:
        callee = call.func
        if (isinstance(callee, ast.Attribute)
                and isinstance(callee.value, ast.Name)
                and callee.value.id == "self"):
            summary = helpers.get(callee.attr)
            if summary is not None and not summary.is_generator:
                return summary
        return None

    # Functions that acquire a Resource slot are presumed to hold it
    # across their critical section; the kernel serializes the holders.
    # Acquisition through a non-generator helper counts.
    for node in own:
        if not isinstance(node, ast.Call):
            continue
        if (isinstance(node.func, ast.Attribute)
                and node.func.attr in {"request", "use"}):
            return
        helper = _helper(node)
        if helper is not None and helper.acquires:
            return
    for node in own:
        if isinstance(node, ast.Global):
            out.add(node, "SIM005",
                    "process generator mutates global state; interleaved "
                    "processes race on it at every yield point")
    yield_lines = sorted(node.lineno for node in own
                         if isinstance(node, (ast.Yield, ast.YieldFrom)))
    if not yield_lines:
        return
    # local name -> {shared attr it snapshots: line of the snapshot}
    snapshots: typing.Dict[str, typing.Dict[str, int]] = {}
    writes: typing.List[ast.Assign] = []
    for node in sorted(
            (n for n in own if isinstance(n, ast.Assign)),
            key=lambda n: n.lineno):
        targets = [t for t in node.targets if isinstance(t, ast.Name)]
        attrs_read = set(_attr_reads(node.value))
        # Interprocedural snapshot: x = self._load() reads whatever the
        # helper reads.
        for call in ast.walk(node.value):
            if isinstance(call, ast.Call):
                helper = _helper(call)
                if helper is not None:
                    attrs_read |= helper.reads
        for target in targets:
            # Re-binding a local replaces its previous snapshot set.
            snapshots[target.id] = {
                attr: node.lineno for attr in sorted(attrs_read)}
        if any(_self_attr_target(t) is not None for t in node.targets):
            writes.append(node)

    def _report(write_node: ast.AST, written: typing.Set[str],
                value: ast.expr, via: str) -> None:
        for local in sorted(_name_reads(value)):
            for attr, read_line in snapshots.get(local, {}).items():
                if attr not in written:
                    continue
                if read_line >= write_node.lineno:
                    continue
                if not any(read_line < y < write_node.lineno
                           for y in yield_lines):
                    continue
                out.add(write_node, "SIM005",
                        f"self.{attr} was read into {local!r} at line "
                        f"{read_line} and written back{via} after a "
                        "yield; other processes ran in between — hold a "
                        "repro.sim Resource around the read-modify-write")

    for write in writes:
        written_attrs = {
            attr for attr in (_self_attr_target(t) for t in write.targets)
            if attr is not None}
        _report(write, written_attrs, write.value, "")
    # Interprocedural write-back: self._store(stale) writes whatever the
    # helper plainly assigns.
    for node in own:
        if not isinstance(node, ast.Call) or not node.args:
            continue
        helper = _helper(node)
        if helper is None or not helper.plain_writes:
            continue
        for arg in node.args:
            _report(node, set(helper.plain_writes), arg,
                    f" through self.{helper.name}()")


def _check_sim006(cls: ast.ClassDef,
                  summaries: typing.Dict[str, _MethodSummary],
                  out: _Collector) -> None:
    """Unguarded same-attribute write family across process methods."""
    delegated: typing.Set[str] = set()
    for summary in summaries.values():
        delegated |= summary.delegated_calls
    writers: typing.Dict[str, typing.List[_MethodSummary]] = {}
    for summary in summaries.values():
        if not summary.is_generator:
            continue
        if summary.name in delegated:
            # Driven via ``yield from`` — a sub-generator of its
            # caller's process, not an independent concurrent body.
            continue
        if not _is_process_generator(summary.node):
            continue
        for attr in summary.plain_writes:
            writers.setdefault(attr, []).append(summary)
    for attr in sorted(writers):
        family = writers[attr]
        if len(family) < 2:
            continue
        if any(summary.acquires for summary in family):
            continue
        names = ", ".join(sorted(summary.name for summary in family))
        first = min(family, key=lambda summary: summary.node.lineno)
        out.add(first.node, "SIM006",
                f"process methods {names} of {cls.name} all assign "
                f"self.{attr} without a Resource guard; at equal "
                "simulated timestamps the kernel tie-break order decides "
                "the final value")


def _check_sim007(func: typing.Union[ast.FunctionDef, ast.AsyncFunctionDef],
                  summaries: typing.Dict[str, _MethodSummary],
                  out: _Collector) -> None:
    """Same-instant fan-out onto racy process bodies."""

    def _spawned_methods(call: ast.Call) -> typing.Iterator[str]:
        # <anything>.process(self.<m>(...)) — the kernel bootstraps the
        # new process at the current instant.
        if not (isinstance(call.func, ast.Attribute)
                and call.func.attr == "process"):
            return
        for arg in call.args:
            if (isinstance(arg, ast.Call)
                    and isinstance(arg.func, ast.Attribute)
                    and isinstance(arg.func.value, ast.Name)
                    and arg.func.value.id == "self"):
                yield arg.func.attr

    seen: typing.Set[typing.Tuple[int, str]] = set()

    def _flag(node: ast.Call, method_name: str) -> None:
        target = summaries.get(method_name)
        if (target is None or not target.is_generator
                or not target.plain_writes or target.acquires):
            return
        key = (id(node), method_name)
        if key in seen:
            return  # nested no-yield loops walk the same call twice
        seen.add(key)
        attrs = ", ".join(
            f"self.{attr}" for attr in sorted(target.plain_writes))
        out.add(node, "SIM007",
                f"loop spawns {method_name}() processes at the same "
                f"simulated instant; their unguarded writes to {attrs} "
                "race on the tie-break order — yield between spawns or "
                "guard the writes with a Resource")

    def _scan(nodes: typing.Iterable[ast.AST]) -> None:
        for node in nodes:
            if isinstance(node, ast.Call):
                for method_name in _spawned_methods(node):
                    _flag(node, method_name)

    for loop in _own_nodes(func):
        if isinstance(loop, (ast.For, ast.While)):
            if any(isinstance(node, (ast.Yield, ast.YieldFrom))
                   for stmt in loop.body for node in ast.walk(stmt)):
                continue  # staggered spawns: each iteration waits
            _scan(node for stmt in loop.body for node in ast.walk(stmt))
        elif isinstance(loop, (ast.ListComp, ast.SetComp,
                               ast.GeneratorExp)):
            # yield is a syntax error inside a comprehension, so every
            # comprehension spawn is same-instant by construction.
            _scan(ast.walk(loop.elt))


def _is_spawn(node: ast.AST) -> bool:
    """Is ``node`` a ``<x>.process(...)`` call?"""
    return (isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "process")


def _is_spawn_list(node: ast.AST) -> bool:
    """A list or tuple of spawns, or a comprehension that spawns."""
    if isinstance(node, (ast.List, ast.Tuple)):
        return bool(node.elts) and all(_is_spawn(elt) for elt in node.elts)
    if isinstance(node, (ast.ListComp, ast.GeneratorExp)):
        return _is_spawn(node.elt)
    return False


def _check_sim008(func: typing.Union[ast.FunctionDef, ast.AsyncFunctionDef],
                  out: _Collector) -> None:
    """Processes spawned only to be waited on."""
    own = list(_own_nodes(func))
    spawn_lists: typing.Set[str] = set()
    loads: typing.Dict[str, int] = {}
    for node in own:
        if (isinstance(node, ast.Assign) and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
                and _is_spawn_list(node.value)):
            spawn_lists.add(node.targets[0].id)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            loads[node.id] = loads.get(node.id, 0) + 1
    for node in own:
        if isinstance(node, ast.Yield) and node.value is not None:
            if _is_spawn(node.value):
                out.add(node, "SIM008",
                        "process spawned only to be waited on: 'yield "
                        "from' its generator runs it inline, with no "
                        "bootstrap or completion event")
        elif (isinstance(node, ast.Call)
              and isinstance(node.func, ast.Attribute)
              and node.func.attr == "all_of" and node.args):
            events = node.args[0]
            if _is_spawn_list(events) or (
                    isinstance(events, ast.Name)
                    and events.id in spawn_lists
                    and loads.get(events.id) == 1):
                out.add(node, "SIM008",
                        "processes spawned only to be joined: "
                        "sim.fork_join(generators) starts them in place "
                        "and joins them with one event")


# ----------------------------------------------------------------------
# Drivers
# ----------------------------------------------------------------------
def lint_source(source: str, path: str = "<string>"
                ) -> typing.List[LintViolation]:
    """Lint one module's source text; returns violations in line order."""
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        line = exc.lineno or 0
        return [LintViolation(path, line, "SIM000",
                              f"syntax error: {exc.msg}")]
    out = _Collector(path, source.splitlines())
    _check_sim001(tree, out)
    _check_sim003(tree, out)
    # Methods get class-level effect summaries (interprocedural SIM005,
    # SIM006/SIM007); free functions are checked in isolation.
    method_summaries: typing.Dict[int, typing.Dict[str, _MethodSummary]] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            summaries = _summarize_class(node)
            _check_sim006(node, summaries, out)
            for summary in summaries.values():
                method_summaries[id(summary.node)] = summaries
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            _check_sim004(node, out)
            _check_sim008(node, out)
            if _is_generator(node):
                summaries = method_summaries.get(id(node), {})
                _check_sim002(node, out)
                _check_sim005(node, out, summaries or None)
                _check_sim007(node, summaries, out)
    return sorted(out.violations, key=lambda v: (v.line, v.code))


def lint_file(path: typing.Union[str, Path]) -> typing.List[LintViolation]:
    """Lint one file on disk."""
    file_path = Path(path)
    return lint_source(file_path.read_text(encoding="utf-8"), str(file_path))


def lint_paths(paths: typing.Iterable[typing.Union[str, Path]]
               ) -> typing.List[LintViolation]:
    """Lint files and directory trees (``*.py``, recursively)."""
    violations: typing.List[LintViolation] = []
    for path in paths:
        target = Path(path)
        if target.is_dir():
            for file_path in sorted(target.rglob("*.py")):
                violations.extend(lint_file(file_path))
        else:
            violations.extend(lint_file(target))
    return violations
