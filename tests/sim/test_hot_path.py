"""The kernel hot-path contract: lazy labels and a pinned schedule.

Speed-only changes to the kernel or the chunk path must keep every
event: the same kinds, the same count, the same order and the same
labels.  The dispatch and batch censuses and the label digest below
pin the schedule of a small mixed read/write stream, so a change that
adds, removes or reorders an event fails here on purpose.  Re-pin them only in a change
that means to move the schedule, and say so in its description.  The
device-state digest pins what the stream leaves in the modules, so a
change to how the device model stores its state must leave it alone.
A second device-state pin runs the chunk paths that no report or
benchmark workload reaches: wear-leveling gap moves, write pausing,
program-and-verify retries and row retirement, each of which holds
the bus.
"""

import collections
import hashlib
import itertools

import pytest

from repro.analysis.determinism import trace_of
from repro.controller import MemoryRequest, Op, PramSubsystem
from repro.controller.request import RequestStatus, reset_request_ids
from repro.faults.plan import FaultConfig
from repro.pram.cell import CellState
from repro.pram.errors import PramError
from repro.pram.module import PramModule
from repro.sim import Resource, Simulator, Timeout
from repro.sim.hostprof import use_hostprof
from repro.telemetry.hostprof import HostProfiler

#: Dispatches per event kind of :func:`_run_mixed_stream`.
PINNED_DISPATCHES = {"Join": 27, "Process": 1, "Request": 256,
                     "Timeout": 144, "bootstrap": 1}
#: SHA-256 of its ``"<time!r> <label>"`` kernel-event lines.
PINNED_LABEL_DIGEST = (
    "55cd415c8456d496c2329c6616b5feff01415fa16ba17c68093ad83cbed7f36e")
#: Its profiled drain's batches: ``{batch size: number of batches}``.
PINNED_BATCH_SIZES = {1: 222, 2: 38, 3: 11, 5: 1, 93: 1}
#: SHA-256 of :func:`_device_state` after it.
PINNED_DEVICE_DIGEST = (
    "d2effab76a4b83bee67f94b4436b1ab82d7a58a786f69b17ed5d1d6f8f76207f")
#: SHA-256 of :func:`_device_state` after :func:`_rare_paths_subsystem`.
PINNED_RARE_PATHS_DIGEST = (
    "8863bdee9281e42946c6f360cde4d7ea5a0ed9089999e5545f06480351ced484")

#: A fault plan that fails programs often, wears rows out after three
#: programs and leaves two spares per partition.
RARE_PATHS_FAULTS = FaultConfig(
    seed=7, program_fail_probability=0.3, read_flip_probability=0.01,
    endurance_budget=3, wear_fail_factor=0.5, spare_rows_per_partition=2)


def _mixed_stream():
    """Twelve open-loop requests; every third one writes.

    Five addresses cycle, so reads hit rows other chunks just read or
    wrote: RAB/RDB hits, pair contention and bus contention all occur.
    """
    requests = []
    for index in range(12):
        address = (index % 5) * 640
        if index % 3 == 2:
            requests.append(MemoryRequest(Op.WRITE, address, 256,
                                          data=bytes([index + 1]) * 256))
        else:
            requests.append(MemoryRequest(Op.READ, address, 256))
    return requests


def _mixed_subsystem():
    reset_request_ids()
    subsystem = PramSubsystem(Simulator())
    subsystem.run_stream(_mixed_stream(), mode="open")
    return subsystem


def _run_mixed_stream():
    return _mixed_subsystem().sim.now


def _rare_paths_subsystem():
    """The mixed stream twice over with start-gap wear leveling (a gap
    move every second write), write pausing and
    :data:`RARE_PATHS_FAULTS`."""
    reset_request_ids()
    subsystem = PramSubsystem(Simulator(), wear_leveling=True,
                              gap_write_interval=2, write_pausing=True,
                              faults=RARE_PATHS_FAULTS)
    subsystem.run_stream(_mixed_stream() + _mixed_stream(), mode="open")
    return subsystem


def _device_state(subsystem):
    """Every module's counters and partition busy horizons, then each
    stored row's bytes, programmed-word mask, per-word pulse counts and
    last-program time, then each partition's pass totals, as text read
    through the device's public accessors."""
    lines = []
    for channel in subsystem.modules:
        for module in channel:
            words = range(module.geometry.words_per_row)
            partitions = range(module.geometry.partitions_per_bank)
            busy = [module.partition_ready_at(p) for p in partitions]
            lines.append(f"m{module.channel_id}.{module.module_id} "
                         f"{module.reads} {module.programs} "
                         f"{module.resets} {busy!r}")
            for (partition, row), data in sorted(module._storage.items()):
                tracker = module.cell_tracker(partition)
                mask = sum(1 << word for word in words
                           if tracker.state(row, word)
                           is CellState.PROGRAMMED)
                pulses = [tracker.writes_to(row, word) for word in words]
                lines.append(
                    f"  p{partition} r{row} {data.hex()} {mask:#x} "
                    f"{pulses} {module.last_program_time(partition, row)!r}")
            for partition in partitions:
                tracker = module.cell_tracker(partition)
                lines.append(
                    f"  p{partition} {tracker.total_set_passes} "
                    f"{tracker.total_reset_passes} "
                    f"{tracker.programmed_words} {tracker.max_writes()}")
    return "\n".join(lines)


class TestPinnedSchedule:
    def test_dispatch_census(self):
        profiler = HostProfiler()
        with use_hostprof(profiler):
            profiled_end = _run_mixed_stream()
        # The profiled drain observes and never perturbs.
        assert profiled_end == _run_mixed_stream()
        census = profiler.census()
        assert census["dispatches"] == PINNED_DISPATCHES
        # Every process bootstrap is a plain Event, scheduled at zero
        # delay (so it waits in the ready queue, not on the heap).
        schedules = dict(PINNED_DISPATCHES)
        schedules["Event"] = schedules.pop("bootstrap")
        assert census["schedules"] == schedules

    def test_batch_census(self):
        profiler = HostProfiler()
        with use_hostprof(profiler):
            _run_mixed_stream()
        sizes = profiler.census()["batch_sizes"]
        assert dict(collections.Counter(sizes)) == PINNED_BATCH_SIZES
        # A profiled batch is exactly one instant of the traced run.
        times = [ts for ts, _ in trace_of(_run_mixed_stream)]
        assert sizes == [len(list(group))
                         for _, group in itertools.groupby(times)]

    def test_device_state(self):
        state = _device_state(_mixed_subsystem())
        digest = hashlib.sha256(state.encode()).hexdigest()
        assert digest == PINNED_DEVICE_DIGEST

    def test_rare_chunk_paths_device_state(self):
        subsystem = _rare_paths_subsystem()
        counts = subsystem.fault_counts()
        assert sum(ch.gap_moves for ch in subsystem.channels) == 32
        assert sum(ch.pauses_issued for ch in subsystem.channels) == 8
        assert counts["retry_programs"] == 188
        assert counts["rows_retired"] == 62
        state = _device_state(subsystem)
        digest = hashlib.sha256(state.encode()).hexdigest()
        assert digest == PINNED_RARE_PATHS_DIGEST

    def test_kernel_label_sequence(self):
        lines = [f"{ts!r} {label}" for ts, label
                 in trace_of(_run_mixed_stream)]
        assert len(lines) == sum(PINNED_DISPATCHES.values())
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        assert digest == PINNED_LABEL_DIGEST


class TestLazyLabels:
    def test_timeout_label(self):
        timeout = Simulator().timeout(12.5)
        assert timeout.name == "Timeout(12.5)"
        assert repr(timeout) == "<Timeout(12.5) (triggered)>"

    def test_request_label(self):
        bus = Resource(Simulator(), name="ch0.bus")
        assert bus.request().name == "request(ch0.bus)"

    def test_explicit_names_win(self):
        sim = Simulator()
        assert Timeout(sim, 1.0, name="tick").name == "tick"
        assert sim.event("gate").name == "gate"
        assert sim.event().name == ""

    def test_kernel_labels_in_a_trace(self):
        def workload():
            sim = Simulator()

            def worker():
                early = sim.timeout(1.0)
                yield sim.timeout(12.5)
                yield early  # long processed: resumes via a passthrough

            sim.process(worker())
            sim.process(worker(), name="alpha")
            sim.run()

        assert [label for _, label in trace_of(workload)] == [
            "worker.bootstrap", "alpha.bootstrap",
            "Timeout(1.0)", "Timeout(1.0)",
            "Timeout(12.5)", "Timeout(12.5)",
            "worker.passthrough", "alpha.passthrough",
            "worker", "alpha",
        ]


@pytest.mark.parametrize("phase", ["activate", "read_burst"])
def test_device_error_mid_read_releases_bus_and_pair(monkeypatch, phase):
    original = getattr(PramModule, phase)
    failed = []

    def fail_once(self, *args, **kwargs):
        if not failed:
            failed.append(self)
            raise PramError(f"injected {phase} failure")
        return original(self, *args, **kwargs)

    monkeypatch.setattr(PramModule, phase, fail_once)
    sim = Simulator()
    subsystem = PramSubsystem(sim)
    broken = MemoryRequest(Op.READ, 0, 256)
    subsystem.run_stream([broken])
    assert failed
    assert broken.status is RequestStatus.FAILED
    for channel in subsystem.channels:
        assert channel.bus.count == 0
        assert channel.bus.queue_length == 0
        assert all(slots.count == 0 for slots in channel._pair_slots)
        assert all(not busy for busy in channel._busy_pairs)
    # The released bus and pair serve the next read of the same row.
    retry = MemoryRequest(Op.READ, 0, 256)
    subsystem.run_stream([retry])
    assert retry.status is RequestStatus.OK
