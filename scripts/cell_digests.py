#!/usr/bin/env python
"""Print an exact digest of every simulated result ``run all`` makes.

Usage, from the repository root::

    python scripts/cell_digests.py {quick|full} SEED

``quick`` is the ``--quick`` configuration and ``full`` the default one
(scale 0.25), both at trace seed ``SEED``.  The script runs, one at a
time, every cell ``python -m repro.experiments run all`` declares (each
key once, in declaration order) and prints one line per cell: the first
16 hex digits of the SHA-256 of the cell's canonical result, then its
key.  A self-contained experiment (fig12, fig20-21, endurance, the
three service sweeps) is one ``experiment/<id>`` cell whose payload is
its report; its line digests the experiment's raw ``run()`` result
instead, because a report rounds its figures to three significant
digits.  The last line digests every cell together, under the key
``total``.

The canonical result (:func:`canonical`) is exact: every field of every
object, dataclasses and slotted objects included, with floats written
by ``repr``.  Two trees give equal output exactly when every simulated
result is the same, to the last bit of every float.  ``diff`` the
output of two trees to see which cells moved.

Because every attribute counts, a digest also moves when a result
object gains or loses an attribute, even an empty container that
nothing records into.  A change that deletes such a container has to
compare against the parent's digests from a copy of this script that
skips the deleted attribute; the stock script disagrees although every
simulated value is equal.

The ``repro`` package on ``PYTHONPATH`` is the one measured, so one
copy of the script can digest any checkout; without it the script uses
the ``src/`` tree next to it.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import pathlib
import sys
import typing

sys.path.append(str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from repro.controller.request import reset_request_ids  # noqa: E402
from repro.experiments import (  # noqa: E402
    cli,
    fig12_interleaving_timing,
    fig20_21_power,
    parallel,
    reliability,
    runner,
    service_sweeps,
)

#: Self-contained experiment -> its raw ``run()``.  ``tables`` has no
#: simulation and no ``run()``: its cell digests its report.
RAW_RUNS: typing.Dict[str, typing.Callable[[runner.ExperimentConfig],
                                           typing.Any]] = {
    "fig12": lambda config: fig12_interleaving_timing.run(),
    "fig20": fig20_21_power.run_figure20,
    "fig21": fig20_21_power.run_figure21,
    "endurance": reliability.run,
    "overload": service_sweeps.run_overload,
    "burst_absorption": service_sweeps.run_burst,
    "tenant_isolation": service_sweeps.run_isolation,
}


def canonical(value: typing.Any) -> str:
    """Exact, order-stable text of a simulated result.

    Floats are written by ``repr`` (the shortest text that reads back
    as the same float), dict items and set members are sorted by their
    own canonical text, sequences keep their order, and any other
    object is its class name and every attribute, from ``__dict__`` and
    from each class's ``__slots__``, sorted by name.
    """
    out: typing.List[str] = []
    _write(value, out)
    return "".join(out)


def _write(value: typing.Any, out: typing.List[str]) -> None:
    if isinstance(value, enum.Enum):
        out.append(f"{type(value).__qualname__}.{value.name}")
    elif value is None or isinstance(value, (bool, int, float, str)):
        out.append(repr(value))
    elif isinstance(value, (bytes, bytearray)):
        out.append(f"bytes({value.hex()})")
    elif isinstance(value, dict):
        items = sorted(((canonical(key), item)
                        for key, item in value.items()),
                       key=lambda pair: pair[0])
        out.append("{")
        for key, item in items:
            out.append(f"{key}:")
            _write(item, out)
            out.append(",")
        out.append("}")
    elif isinstance(value, (set, frozenset)):
        out.append("{" + ",".join(sorted(canonical(member)
                                         for member in value)) + "}")
    elif isinstance(value, (list, tuple)):
        out.append(f"{type(value).__qualname__}[")
        for item in value:
            _write(item, out)
            out.append(",")
        out.append("]")
    else:
        out.append(f"{type(value).__qualname__}(")
        for name, field in sorted(_attributes(value).items()):
            out.append(f"{name}=")
            _write(field, out)
            out.append(",")
        out.append(")")


def _attributes(value: typing.Any) -> typing.Dict[str, typing.Any]:
    """Every attribute of ``value``: its ``__dict__`` and its slots."""
    has_fields = hasattr(value, "__dict__")
    fields = dict(getattr(value, "__dict__", {}))
    for cls in type(value).__mro__:
        slots = cls.__dict__.get("__slots__", ())
        for name in ((slots,) if isinstance(slots, str) else slots):
            if name in ("__dict__", "__weakref__"):
                continue
            has_fields = True
            if hasattr(value, name):
                fields[name] = getattr(value, name)
    if not has_fields:
        raise TypeError(f"no canonical form for {type(value).__qualname__}")
    return fields


def digest(value: typing.Any) -> str:
    """Full SHA-256 hex digest of ``canonical(value)``."""
    return hashlib.sha256(canonical(value).encode()).hexdigest()


def config_for(mode: str, seed: int) -> runner.ExperimentConfig:
    """``quick`` (the ``--quick`` config) or ``full`` (the default)."""
    if mode == "quick":
        return dataclasses.replace(runner.QUICK, seed=seed)
    if mode == "full":
        return runner.ExperimentConfig(seed=seed)
    raise ValueError(f"mode must be 'quick' or 'full', got {mode!r}")


def run_all_cells(config: runner.ExperimentConfig) -> typing.List[runner.Cell]:
    """Every cell ``run all`` declares, each key once, in order."""
    declared: typing.Dict[str, runner.Cell] = {}
    for name in cli.EXPERIMENTS:
        for cell in cli.experiment_cells(name, config):
            declared.setdefault(cell.key, cell)
    return list(declared.values())


def cell_result(cell: runner.Cell, config: runner.ExperimentConfig
                ) -> typing.Any:
    """What a cell's line digests: its payload, or a self-contained
    experiment's raw ``run()`` result."""
    prefix, _, name = cell.key.partition("/")
    if prefix == "experiment" and name in RAW_RUNS:
        reset_request_ids()
        return RAW_RUNS[name](config)
    return parallel.cell_results([cell], config)[cell.key]


def digests(config: runner.ExperimentConfig
            ) -> typing.Iterator[typing.Tuple[str, str]]:
    """``(key, full digest)`` per cell, then ``("total", digest of all)``."""
    total = hashlib.sha256()
    for cell in run_all_cells(config):
        value = digest(cell_result(cell, config))
        total.update(f"{cell.key} {value}\n".encode())
        yield cell.key, value
    yield "total", total.hexdigest()


def main(argv: typing.Sequence[str]) -> int:
    if len(argv) != 2 or argv[0] not in ("quick", "full"):
        print("usage: cell_digests.py {quick|full} SEED", file=sys.stderr)
        return 2
    try:
        seed = int(argv[1])
    except ValueError:
        print(f"SEED must be an integer, got {argv[1]!r}", file=sys.stderr)
        return 2
    for key, value in digests(config_for(argv[0], seed)):
        print(f"{value[:16]}  {key}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
