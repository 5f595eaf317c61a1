"""Pytest integration for the analysis subsystem.

Registered from the repository-root ``conftest.py``.  Provides:

* ``@pytest.mark.determinism`` — the marked test is executed twice;
  the event traces the DES kernel emitted during each execution
  (:func:`~repro.analysis.determinism.capture_trace`, a kernel
  observer that leaves the ambient tracer null, so the body runs the
  untraced device paths) are compared and any divergence fails the
  test with the first differing event.  The test body must be
  self-contained (build its own
  :class:`~repro.sim.engine.Simulator`), which every kernel-driving
  test in this suite already is.
* ``@pytest.mark.tiebreak_shuffle`` — the marked test is executed
  again under seeded random permutations of every same-timestamp event
  batch (``tiebreak_shuffle(runs=N, seed=S)``; default 3 runs).  A
  test that passes under FIFO order but fails under a shuffle depends
  on the kernel tie-break — exactly the dependence a kernel that
  reorders within an instant is not allowed to see.  Like
  ``determinism``, the body must build its own simulator.
* ``race_sanitizer`` fixture — an ambient
  :class:`~repro.analysis.racecheck.RaceSanitizer`; ``watch()`` the
  shared objects inside the test and the test fails at teardown if any
  same-timestamp W/W or R/W race was observed.

LPDDR2-NVM protocol conformance needs no fixture: record the run under
a :class:`~repro.telemetry.RecordingTracer` and assert that
:func:`~repro.analysis.conformance.check_trace` of its ``commands`` is
empty.
"""

from __future__ import annotations

import typing

import pytest

from repro.analysis.determinism import DeterminismError, capture_trace, diff_traces
from repro.analysis.racecheck import RaceSanitizer, format_races
from repro.sim.sanitizer import use_sanitizer, use_tiebreak


def pytest_configure(config: typing.Any) -> None:
    config.addinivalue_line(
        "markers",
        "determinism: run the test twice and fail on any divergence "
        "between the two kernel event traces",
    )
    config.addinivalue_line(
        "markers",
        "tiebreak_shuffle(runs=3, seed=0): re-run the test under seeded "
        "permutations of every same-timestamp event batch; a failure "
        "means the test depends on the kernel's FIFO tie-break order",
    )


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_call(item: typing.Any) -> typing.Iterator[None]:
    determinism = item.get_closest_marker("determinism")
    shuffle = item.get_closest_marker("tiebreak_shuffle")
    if determinism is None and shuffle is None:
        yield
        return
    if determinism is not None:
        with capture_trace() as first:
            outcome = yield  # the normal (first) execution of the test
        if outcome.excinfo is not None:
            return  # already failing; don't pile a second run on top
        with capture_trace() as second:
            item.runtest()
        problem = diff_traces(first, second)
        if problem is not None:
            raise DeterminismError(
                f"{item.nodeid} is nondeterministic: {problem}")
    else:
        outcome = yield  # the normal FIFO-order execution
        if outcome.excinfo is not None:
            return
    if shuffle is None:
        return
    runs = int(shuffle.kwargs.get("runs", 3))
    base_seed = int(shuffle.kwargs.get("seed", 0))
    for offset in range(runs):
        seed = base_seed + offset + 1
        try:
            with use_tiebreak(seed):
                item.runtest()
        except Exception as exc:
            raise AssertionError(
                f"{item.nodeid} passes under FIFO tie-break order but "
                f"fails under same-timestamp shuffle seed {seed}: the "
                "test (or the code it drives) depends on the kernel "
                f"tie-break — {exc!r}") from exc


@pytest.fixture
def race_sanitizer() -> typing.Iterator[RaceSanitizer]:
    """Ambient happens-before sanitizer; fails the test on races."""
    sanitizer = RaceSanitizer()
    with use_sanitizer(sanitizer):
        yield sanitizer
    sanitizer.stop()
    races = sanitizer.races()
    if races:
        pytest.fail(
            "same-timestamp races observed:\n" + format_races(races))
