"""Happens-before sanitizer and tie-break shuffle oracle."""

import pytest

from repro.analysis import racecheck
from repro.analysis.racecheck import (
    RaceSanitizer,
    canonical_fingerprint,
    certify_tiebreak_independence,
    format_races,
)
from repro.sim import Resource, Simulator, use_tiebreak


class UnguardedModel:
    """Two processes plainly assign ``count`` at the same instant."""

    def __init__(self, sim):
        self.sim = sim
        self.count = 0

    def writer(self, delay, value):
        yield self.sim.timeout(delay)
        self.count = value


class GuardedModel:
    """Same shape, but the read-modify-write holds a Resource."""

    def __init__(self, sim):
        self.sim = sim
        self.count = 0
        self.lock = Resource(sim, name="lock")

    def writer(self, delay, value):
        yield self.sim.timeout(delay)
        grant = self.lock.request()
        yield grant
        self.count = self.count + value
        self.lock.release(grant)


class AccumulatorModel:
    """Augmented adds: a sanitizer-visible conflict the shuffle refutes."""

    def __init__(self, sim):
        self.sim = sim
        self.count = 0

    def writer(self, delay, value):
        yield self.sim.timeout(delay)
        self.count += value


def run_unguarded():
    sim = Simulator()
    model = UnguardedModel(sim)
    sim.process(model.writer(10.0, 1), name="writer-a")
    sim.process(model.writer(10.0, 2), name="writer-b")
    sim.run()
    return {"count": model.count}


def run_accumulator():
    sim = Simulator()
    model = AccumulatorModel(sim)
    sim.process(model.writer(10.0, 1), name="writer-a")
    sim.process(model.writer(10.0, 2), name="writer-b")
    sim.run()
    return {"count": model.count}


# ----------------------------------------------------------------------
# Dynamic sanitizer
# ----------------------------------------------------------------------
def test_ww_race_detected_with_source_location():
    with racecheck.sanitize() as sanitizer:
        sim = Simulator()
        model = sanitizer.watch(UnguardedModel(sim), attrs=("count",))
        sim.process(model.writer(10.0, 1), name="writer-a")
        sim.process(model.writer(10.0, 2), name="writer-b")
        sim.run()
    races = sanitizer.races()
    assert len(races) == 1
    report = races[0]
    assert report.kinds == "W/W"
    assert report.attr == "count"
    assert report.time_ns == 10.0
    assert report.first.file.endswith("test_racecheck.py")
    assert report.first.line > 0
    assert {report.first.actor, report.second.actor} == {
        "writer-a", "writer-b"}
    assert "no happens-before path" in str(report)


def test_resource_guard_establishes_happens_before():
    with racecheck.sanitize() as sanitizer:
        sim = Simulator()
        model = sanitizer.watch(GuardedModel(sim), attrs=("count",))
        sim.process(model.writer(10.0, 1), name="writer-a")
        sim.process(model.writer(10.0, 2), name="writer-b")
        sim.run()
    assert sanitizer.races() == []
    assert model.count == 3
    # The release hands the slot over inside the releasing task, so the
    # second guarded write descends from the first.
    first, second = (access.task for access in sanitizer.accesses
                     if access.kind == "write")
    assert sanitizer.happens_before(first, second)


def test_event_trigger_edges_cover_succeed_causality():
    with racecheck.sanitize() as sanitizer:
        sim = Simulator()

        class Pair:
            def __init__(self):
                self.value = 0

        pair = sanitizer.watch(Pair(), attrs=("value",))
        gate = sim.event("gate")

        def signaller():
            yield sim.timeout(10.0)
            pair.value = 1
            gate.succeed()

        def waiter():
            yield gate
            pair.value = 2

        sim.process(signaller(), name="signaller")
        sim.process(waiter(), name="waiter")
        sim.run()
    # Both writes land at t=10.0, but succeed() schedules the
    # resumption, so the waiter's write is ordered after.
    assert sanitizer.races() == []
    first, second = (access.task for access in sanitizer.accesses)
    assert sanitizer.happens_before(first, second)


def test_failed_event_edge_is_labeled_fail():
    # fail() orders the waiter after the failing task, as succeed()
    # does: the write before the failure and the write after the
    # waiter catches it share an instant but do not race.
    with racecheck.sanitize() as sanitizer:
        sim = Simulator()

        class Pair:
            def __init__(self):
                self.value = 0

        pair = sanitizer.watch(Pair(), attrs=("value",))
        gate = sim.event("gate")

        def failer():
            yield sim.timeout(10.0)
            pair.value = 1
            gate.fail(RuntimeError("gate broke"))

        def waiter():
            with pytest.raises(RuntimeError):
                yield gate
            pair.value = 2

        sim.process(failer(), name="failer")
        sim.process(waiter(), name="waiter")
        sim.run()
    assert pair.value == 2
    assert sanitizer.races() == []
    first, second = (access.task for access in sanitizer.accesses)
    assert sanitizer.happens_before(first, second)


def test_reads_do_not_race_with_reads():
    with racecheck.sanitize() as sanitizer:
        sim = Simulator()

        class Shared:
            def __init__(self):
                self.value = 7

        shared = sanitizer.watch(Shared(), attrs=("value",))

        def reader(name):
            yield sim.timeout(5.0)
            assert shared.value == 7

        sim.process(reader("a"), name="a")
        sim.process(reader("b"), name="b")
        sim.run()
    assert sanitizer.races() == []


def test_read_write_conflict_reported():
    with racecheck.sanitize() as sanitizer:
        sim = Simulator()
        model = sanitizer.watch(UnguardedModel(sim), attrs=("count",))

        def reader():
            yield sim.timeout(10.0)
            _ = model.count

        sim.process(model.writer(10.0, 1), name="writer")
        sim.process(reader(), name="reader")
        sim.run()
    races = sanitizer.races()
    assert len(races) == 1
    assert races[0].kinds == "R/W"


def test_happens_before_is_ancestor_test():
    from repro.sim.sanitizer import use_sanitizer

    sanitizer = RaceSanitizer()
    with use_sanitizer(sanitizer):
        sim = Simulator()

        def parent():
            yield sim.timeout(1.0)
            yield sim.timeout(1.0)

        sim.process(parent(), name="p")
        sim.run()
    # Root reaches everything; later tasks never reach earlier ones.
    last = len(sanitizer._tasks) - 1
    assert sanitizer.happens_before(0, last)
    assert not sanitizer.happens_before(last, 0)
    for task in sanitizer._tasks[1:]:
        assert task.parent < task.task_id
        assert sanitizer.happens_before(task.parent, task.task_id)


def test_init_writes_never_race_with_run_writes():
    with racecheck.sanitize() as sanitizer:
        sim = Simulator()
        model = sanitizer.watch(UnguardedModel(sim), attrs=("count",))
        model.count = 0  # root-task write at t=0
        sim.process(model.writer(0.0, 1), name="writer")
        sim.run()
    # The root task is an ancestor of every task, so the t=0 writes
    # are HB-ordered even though the timestamps are equal.
    assert sanitizer.races() == []


@pytest.mark.determinism
def test_sanitizer_report_is_byte_identical_across_runs():
    def observe():
        with racecheck.sanitize() as sanitizer:
            sim = Simulator()
            model = sanitizer.watch(UnguardedModel(sim), attrs=("count",))
            sim.process(model.writer(10.0, 1), name="writer-a")
            sim.process(model.writer(10.0, 2), name="writer-b")
            sim.run()
        return format_races(sanitizer.races())

    assert observe() == observe()


def test_race_sanitizer_fixture_fails_on_races():
    # The fixture itself is exercised positively by the guarded tests;
    # here we check the negative path manually (a fixture that fails in
    # teardown cannot be asserted on in-line).
    sanitizer = RaceSanitizer()
    from repro.sim.sanitizer import use_sanitizer

    with use_sanitizer(sanitizer):
        sim = Simulator()
        model = sanitizer.watch(UnguardedModel(sim), attrs=("count",))
        sim.process(model.writer(10.0, 1), name="writer-a")
        sim.process(model.writer(10.0, 2), name="writer-b")
        sim.run()
    sanitizer.stop()
    assert sanitizer.races(), "expected the unguarded model to race"


def test_watch_discovers_instance_attributes_by_default():
    with racecheck.sanitize() as sanitizer:
        sim = Simulator()
        model = sanitizer.watch(UnguardedModel(sim), name="device")
        sim.process(model.writer(10.0, 1), name="writer-a")
        sim.process(model.writer(10.0, 2), name="writer-b")
        sim.run()
    races = sanitizer.races()
    assert any(r.attr == "count" and r.obj == "device" for r in races)


# ----------------------------------------------------------------------
# Tie-break shuffle oracle
# ----------------------------------------------------------------------
def test_shuffle_oracle_refutes_order_dependent_workload():
    certificate = certify_tiebreak_independence(
        run_unguarded, subject="unguarded", runs=8)
    assert not certificate.independent
    assert certificate.mismatches
    assert "divergence at byte" in certificate.mismatches[0].divergence
    assert "DEPENDENT" in certificate.summary()


def test_shuffle_oracle_certifies_commutative_workload():
    certificate = certify_tiebreak_independence(
        run_accumulator, subject="accumulator", runs=5)
    assert certificate.independent
    assert certificate.mismatches == ()
    assert "tiebreak-independent" in certificate.summary()
    assert certificate.subject == "accumulator"
    assert certificate.runs == 5


def test_sanitizer_flags_what_the_shuffle_refutes():
    # The sanitizer reports the accumulator's same-instant W/W conflict
    # (it cannot know += commutes); the shuffle oracle then refutes any
    # observable effect.  Together they say: "racy access, benign
    # outcome" — exactly the two-sided report the issue asks for.
    with racecheck.sanitize() as sanitizer:
        sim = Simulator()
        model = sanitizer.watch(AccumulatorModel(sim), attrs=("count",))
        sim.process(model.writer(10.0, 1), name="writer-a")
        sim.process(model.writer(10.0, 2), name="writer-b")
        sim.run()
    assert sanitizer.races(), "sanitizer should flag the += conflict"
    certificate = certify_tiebreak_independence(
        run_accumulator, subject="accumulator", runs=5)
    assert certificate.independent


def test_shuffled_runs_converge_to_same_end_state_when_commutative():
    baseline = run_accumulator()
    for seed in (1, 2, 3):
        with use_tiebreak(seed):
            assert run_accumulator() == baseline


def test_certify_validates_runs():
    with pytest.raises(ValueError):
        certify_tiebreak_independence(run_accumulator, runs=0)


# ----------------------------------------------------------------------
# Canonical fingerprint
# ----------------------------------------------------------------------
def test_canonical_fingerprint_is_order_insensitive_for_dicts():
    assert canonical_fingerprint({"b": 2, "a": 1}) == \
        canonical_fingerprint({"a": 1, "b": 2})


def test_canonical_fingerprint_handles_rich_values():
    import dataclasses

    @dataclasses.dataclass
    class Stats:
        hits: int
        tags: tuple

    fingerprint = canonical_fingerprint(
        {"stats": Stats(3, ("a", "b")), "seen": {2, 1}})
    assert '"hits":3' in fingerprint
    assert '"seen":["1","2"]' in fingerprint


def test_canonical_fingerprint_scrubs_memory_addresses():
    class Opaque:
        pass

    first = canonical_fingerprint(Opaque())
    second = canonical_fingerprint(Opaque())
    assert first == second
    assert "0x-" in first
