"""Kernel observers alone and in combination: pinned artifacts.

The mixed read/write stream of ``tests/sim/test_hot_path.py`` runs
with each kernel observer attached alone, then with all four at once:

* the kernel-event trace (``capture_trace``);
* the race sanitizer's task table (id, parent, time, label, actor),
  which is its happens-before tree;
* the sampler's 500 ns window series;
* the host profiler's census, which carries no host time.

Attaching the others must not change what any one of them records,
and no observer may change what the stream simulates: its end instant
and the device state it leaves.  The trace, the sanitizer and the
sampler are pinned under a tie-break shuffle as well, alone and
together.  Every digest is a SHA-256 of the artifact's text.
"""

import contextlib
import hashlib
import json

import pytest

from repro.analysis.determinism import capture_trace
from repro.analysis.racecheck import RaceSanitizer
from repro.sim import (
    Resource,
    Simulator,
    use_sampling,
    use_sanitizer,
    use_tiebreak,
)
from repro.sim.hostprof import use_hostprof
from repro.telemetry.hostprof import HostProfiler
from repro.telemetry.metrics import MetricsRegistry, use_metrics
from repro.telemetry.timeseries import SamplingConfig, export_document
from tests.sim.test_hot_path import _device_state, _mixed_subsystem

#: Window of the sampler's series.
WINDOW_NS = 500.0

#: Shuffle seed of the tie-break pins.
TIEBREAK_SEED = 3

#: Digest per observer, FIFO drain.
PINS = {
    "tracer":
        "55cd415c8456d496c2329c6616b5feff01415fa16ba17c68093ad83cbed7f36e",
    "sanitizer":
        "1ab108bf8398a50061d5e2e49e1719989bf08b4719717f2d968c6b1970ab955c",
    "sampler":
        "a93e04b3f2d218ee74c14f9d235e18cd7525133d595c7211356da457ac35b5b1",
    "hostprof":
        "f42508f16bf44918ec449b6bff368a0d9a7547058c8fd964e8c11c03c294d553",
}

#: Digest per observer under ``use_tiebreak(TIEBREAK_SEED)``.
SHUFFLED_PINS = {
    "tracer":
        "735ae652e9e4d11999d176911aae2b530fd15fb985d0dd322773f52df56a7aa9",
    "sanitizer":
        "384801126c4bd017b5076d3fa8b2d568bdd22ac7b37888e4ccddb658c1bbfeb7",
    "sampler":
        "3be589ea5cec3c8a88c52e42d63e1228769996c5435a527e58def30d13a44cf8",
}


def _sha256(lines):
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def _run_observed(observers, tiebreak=None):
    """Run the mixed stream with ``observers`` attached; the subsystem,
    and what the trace, sanitizer, sampler and profiler recorded."""
    events = []
    sanitizer = RaceSanitizer()
    registry = MetricsRegistry()
    profiler = HostProfiler()
    with contextlib.ExitStack() as stack:
        if "tracer" in observers:
            events = stack.enter_context(capture_trace())
        if "sanitizer" in observers:
            stack.enter_context(use_sanitizer(sanitizer))
        if "sampler" in observers:
            stack.enter_context(use_metrics(registry))
            stack.enter_context(use_sampling(SamplingConfig(WINDOW_NS)))
        if "hostprof" in observers:
            stack.enter_context(use_hostprof(profiler))
        if tiebreak is not None:
            stack.enter_context(use_tiebreak(tiebreak))
        subsystem = _mixed_subsystem()
    return subsystem, (events, sanitizer, registry, profiler)


def _observe(observers, tiebreak=None):
    """Run the mixed stream with ``observers`` attached; the digest of
    each one's artifacts."""
    _, (events, sanitizer, registry, profiler) = _run_observed(
        observers, tiebreak)
    artifacts = {
        "tracer": [f"{ts!r} {label}" for ts, label in events],
        "sanitizer": [
            f"task {task.task_id} {task.parent} {task.time_ns!r} "
            f"{task.label} {task.actor}"
            for task in sanitizer._tasks],
        "sampler": [json.dumps(
            export_document(registry, WINDOW_NS)["series"],
            sort_keys=True)],
        "hostprof": [json.dumps(profiler.census(), sort_keys=True)],
    }
    return {name: _sha256(artifacts[name]) for name in observers}


@pytest.mark.parametrize("observer", sorted(PINS))
def test_observer_leaves_the_simulated_outputs(observer):
    bare = _mixed_subsystem()
    observed, _ = _run_observed([observer])
    assert observed.sim.now == bare.sim.now
    assert _device_state(observed) == _device_state(bare)


@pytest.mark.parametrize("observer", sorted(PINS))
def test_observer_alone(observer):
    assert _observe([observer]) == {observer: PINS[observer]}


def test_all_four_at_once():
    assert _observe(list(PINS)) == PINS


@pytest.mark.parametrize("observer", sorted(SHUFFLED_PINS))
def test_observer_alone_under_shuffle(observer):
    assert (_observe([observer], TIEBREAK_SEED)
            == {observer: SHUFFLED_PINS[observer]})


def test_three_at_once_under_shuffle():
    assert _observe(list(SHUFFLED_PINS), TIEBREAK_SEED) == SHUFFLED_PINS



def test_routes_are_hooked_only_for_the_hooks_observers_override():
    # The profiler and the sanitizer override on_schedule: triggers go
    # through the hooked schedule at zero delay, and resource claims
    # stay stock, since no observer hooks a slot.
    with use_hostprof(HostProfiler()):
        profiled = Simulator()
    with use_sanitizer(RaceSanitizer()):
        sanitized = Simulator()
    for sim in (profiled, sanitized):
        assert sim._trigger.func == sim._schedule_observed
        assert sim._trigger.args == (0.0,)
        bus = Resource(sim)
        assert "request" not in vars(bus)
        assert "release" not in vars(bus)
    with use_metrics(MetricsRegistry()), use_sampling(SamplingConfig()):
        sampled = Simulator()
    assert sampled._trigger == sampled._ready.append
    assert "_schedule" not in vars(sampled)
