"""Kernel observers alone and in combination: pinned artifacts.

The mixed read/write stream of ``tests/sim/test_hot_path.py`` runs
with each kernel observer attached alone, then with all four at once:

* the tracer's kernel-event lines;
* the race sanitizer's task table (id, parent, time, label, edge kind,
  actor), its happens-before edges and its release log;
* the sampler's 500 ns window series;
* the host profiler's census, which carries no host time.

Attaching the others must not change what any one of them records.
The tracer, the sanitizer and the sampler are pinned under a tie-break
shuffle as well, alone and together.  Every digest is a SHA-256 of the
artifact's text, taken before the observers shared one seam.
"""

import contextlib
import hashlib
import json

import pytest

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
from repro.telemetry.tracer import KernelEventRecorder, use_tracer
from tests.sim.test_hot_path import _mixed_subsystem

#: Window of the sampler's series.
WINDOW_NS = 500.0

#: Shuffle seed of the tie-break pins.
TIEBREAK_SEED = 3

#: Digest per observer, FIFO drain.
PINS = {
    "tracer":
        "095001e27b9b9066696dd98382673b69548c5848270eb3bf5f0848c6380eabec",
    "sanitizer":
        "eebb19055f601698a46067ea9250b821a9a152102d8bdfd235fe7ba53475c277",
    "sampler":
        "a93e04b3f2d218ee74c14f9d235e18cd7525133d595c7211356da457ac35b5b1",
    "hostprof":
        "ad1d93b85d90509d78c5f6ca94c15cefcf88143db8d572f598eada8d25b1c5a4",
}

#: Digest per observer under ``use_tiebreak(TIEBREAK_SEED)``.
SHUFFLED_PINS = {
    "tracer":
        "e2fa6373c734e22a8ed2f6d56262d5894d836f98f5111430839219e7b3bc09ee",
    "sanitizer":
        "25201cb2dab57af0089f75f9e1357861010f48fc9b6b40d7c6d718ab51439b3f",
    "sampler":
        "581f2c04a413d515ffd4d438eac877ed467c4ee0825dfb1d0244a5ec2640d8aa",
}


def _sha256(lines):
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def _observe(observers, tiebreak=None):
    """Run the mixed stream with ``observers`` attached; the digest of
    each one's artifacts."""
    events = []
    sanitizer = RaceSanitizer()
    registry = MetricsRegistry()
    profiler = HostProfiler()
    with contextlib.ExitStack() as stack:
        if "tracer" in observers:
            stack.enter_context(use_tracer(KernelEventRecorder(events)))
        if "sanitizer" in observers:
            stack.enter_context(use_sanitizer(sanitizer))
        if "sampler" in observers:
            stack.enter_context(use_metrics(registry))
            stack.enter_context(use_sampling(SamplingConfig(WINDOW_NS)))
        if "hostprof" in observers:
            stack.enter_context(use_hostprof(profiler))
        if tiebreak is not None:
            stack.enter_context(use_tiebreak(tiebreak))
        _mixed_subsystem()
    artifacts = {
        "tracer": [f"{ts!r} {label}" for ts, label in events],
        "sanitizer": (
            [f"task {task.task_id} {task.parent} {task.time_ns!r} "
             f"{task.label} {task.edge_kind} {task.actor}"
             for task in sanitizer._tasks]
            + [f"edge {edge.src} {edge.dst} {edge.kind}"
               for edge in sanitizer.hb_edges]
            + [f"release {task} {name}"
               for task, name in sanitizer.releases]),
        "sampler": [json.dumps(
            export_document(registry, WINDOW_NS)["series"],
            sort_keys=True)],
        "hostprof": [json.dumps(profiler.census(), sort_keys=True)],
    }
    return {name: _sha256(artifacts[name]) for name in observers}


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
    # The profiler overrides on_schedule but no trigger or slot hook:
    # triggers go through the hooked schedule, resource claims stay
    # stock.  The sanitizer overrides all of them.
    with use_hostprof(HostProfiler()):
        profiled = Simulator()
    with use_sanitizer(RaceSanitizer()):
        sanitized = Simulator()
    assert profiled._trigger.func == profiled._schedule_observed
    assert sanitized._trigger == sanitized._trigger_observed
    for sim, hooked in ((profiled, False), (sanitized, True)):
        bus = Resource(sim)
        assert ("request" in vars(bus)) is hooked
        assert ("release" in vars(bus)) is hooked
    with use_metrics(MetricsRegistry()), use_sampling(SamplingConfig()):
        sampled = Simulator()
    assert sampled._trigger == sampled._ready.append
    assert "_schedule" not in vars(sampled)
