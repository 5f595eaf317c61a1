"""Compiled flat-loop execution backend for frozen configurations.

The interpreted engine (:mod:`repro.sim.engine`) pays a Python dispatch
per event — fine for exploration, too slow for the million-request
service-layer runs the roadmap targets.  This module is the second
backend: for a **frozen** (topology, scheduler, fault-plan)
configuration it compiles a request stream into a flat loop over the
per-phase latencies that :class:`~repro.pram.timing.TimingModel`
precomputes from the LPDDR2-NVM three-phase model, with
numpy-vectorized batch phase arithmetic for homogeneous waves (and a
pure-stdlib tier producing bit-identical floats when numpy is
absent).  No event heap, no coroutines, no per-event dispatch on the
steady-state path.

The contract is *byte identity*: a compiled run must leave every
observable — device state, stats objects, latency-sketch payloads,
metrics series, BENCH aggregates — exactly as the interpreted engine
would have.  That is only possible because the schedule of an eligible
configuration is provably deterministic and tie-break independent
(PR 6's ``certify_tiebreak_independence`` oracle is the semantic
precondition); anything outside the certified envelope — a kernel
observer (tracer, sanitizer, sampler, host profiler) or tie-break seed,
non-certified schedulers, fault plans, heterogeneous streams — falls
back to the interpreted engine with a recorded
:class:`BackendDecision` naming every reason.

Float discipline: the kernel replicates the interpreted engine's
*exact* arithmetic expressions, not mathematically equivalent ones.
Timeout wake-ups are ``a + (b - a)`` (which is not ``b`` in IEEE-754),
burst holds are ``((t + preamble) + burst) - t``, and the command-chain
prefix sums are seeded sequential accumulations — elementwise identical
between the numpy and stdlib tiers.
"""

from __future__ import annotations

import contextlib
import contextvars
import dataclasses
import importlib
import os
import typing

if typing.TYPE_CHECKING:
    from repro.controller.channel import ChannelController
    from repro.controller.controller import PramSubsystem
    from repro.controller.request import MemoryRequest
    from repro.controller.translator import ChunkPlan
    from repro.pram.module import PramModule

#: The selectable execution backends.
BACKENDS: typing.Tuple[str, ...] = ("interpreted", "compiled")

#: Schedulers whose service order is certified tie-break independent
#: (the shuffle oracle's envelope).  SELECTIVE_ERASE issues opportunistic
#: background pre-resets whose interleaving is load-dependent, so it
#: stays on the interpreted engine.
CERTIFIED_POLICIES: typing.FrozenSet[str] = frozenset(
    {"bare-metal", "interleaving", "final"})

_backend_var: contextvars.ContextVar[str] = contextvars.ContextVar(
    "repro_backend", default="interpreted")


def current_backend() -> str:
    """The ambient execution backend ("interpreted" unless overridden)."""
    return _backend_var.get()


@contextlib.contextmanager
def use_backend(backend: str) -> typing.Iterator[None]:
    """Select the execution backend for the enclosed scope.

    Follows the ambient-contextvar pattern of ``use_tracer`` /
    ``use_sampling``: experiment cells wrap themselves in
    ``use_backend(config.backend)`` and every ``run_stream`` call
    underneath resolves the knob without plumbing.
    """
    if backend not in BACKENDS:
        raise ValueError(
            f"unknown backend {backend!r}; expected one of {BACKENDS}")
    token = _backend_var.set(backend)
    try:
        yield
    finally:
        _backend_var.reset(token)


@dataclasses.dataclass(frozen=True)
class BackendDecision:
    """One backend-selection outcome, with the fallback reasons."""

    requested: str
    used: str
    reasons: typing.Tuple[str, ...] = ()

    @property
    def compiled(self) -> bool:
        """Did the compiled kernel actually run?"""
        return self.used == "compiled"


_decision_log: typing.List[BackendDecision] = []


def record_decision(decision: BackendDecision) -> None:
    """Append one decision to the process-wide log."""
    _decision_log.append(decision)


def backend_decisions() -> typing.Tuple[BackendDecision, ...]:
    """Every decision recorded since the last clear, oldest first."""
    return tuple(_decision_log)


def clear_backend_decisions() -> None:
    """Reset the decision log (test / CLI isolation)."""
    del _decision_log[:]


def load_numpy() -> typing.Any:
    """The numpy module, or None when absent or disabled.

    ``REPRO_NO_NUMPY`` (any non-empty value) forces the pure-stdlib
    tier — the CI lever that exercises the fallback arithmetic on
    machines that do have numpy installed.  Checked per call so tests
    can monkeypatch the environment.
    """
    if os.environ.get("REPRO_NO_NUMPY"):
        return None
    try:
        return importlib.import_module("numpy")
    except ImportError:
        return None


# ----------------------------------------------------------------------
# Eligibility: the frozen-configuration envelope
# ----------------------------------------------------------------------
def subsystem_fallback_reasons(
        subsystem: "PramSubsystem") -> typing.List[str]:
    """Configuration-level reasons this subsystem cannot be compiled.

    Empty means the *topology* is frozen; the stream itself is vetted
    separately by :func:`stream_fallback_reasons`.
    """
    reasons: typing.List[str] = []
    sim = subsystem.sim
    if subsystem.policy.value not in CERTIFIED_POLICIES:
        reasons.append(
            f"scheduler '{subsystem.policy.value}' is not certified "
            "tie-break independent")
    if subsystem.firmware is not None:
        reasons.append("firmware model attached")
    if subsystem.faults is not None:
        reasons.append("fault plan attached")
    if subsystem.monitor is not None:
        reasons.append("protocol monitor attached")
    channel = subsystem.channels[0]
    if channel.wear_leveling:
        reasons.append("wear leveling enabled")
    if channel.write_pausing:
        reasons.append("write pausing enabled")
    # Tracer, sanitizer, sampler, host profiler or tie-break seed: the
    # kernel then drains through its observed drain.
    if sim._observer is not None:
        reasons.append("kernel observer attached")
    return reasons


def stream_fallback_reasons(
        subsystem: "PramSubsystem",
        requests: typing.Sequence["MemoryRequest"],
        mode: str) -> typing.List[str]:
    """Stream-shape reasons this batch cannot be compiled.

    The concurrency census exploits the address layout instead of
    walking chunks: consecutive chunks of a request occupy consecutive
    row strides, so their ``(channel, module)`` pair rotates through
    all ``modules x channels`` positions with that exact period.  Per
    request the per-pair maxima and channel span are therefore closed
    forms of the chunk count — O(1) per request, never touching the
    planner's round-robin buffer rotation before a fallback hands the
    same stream to the interpreted engine.
    """
    reasons: typing.List[str] = []
    first = requests[0]
    if any(request.op is not first.op for request in requests):
        reasons.append("mixed-operation stream")
    if any(request.size != first.size for request in requests):
        reasons.append("mixed request sizes")
    if any(request.done is not None for request in requests):
        reasons.append("request carries a completion event")
    is_write = first.op.value == "write"
    if is_write and mode == "open":
        reasons.append("open-loop write stream")
    geometry = subsystem.geometry
    pair_count = geometry.rdb_count
    row_bytes = geometry.row_bytes
    modules = geometry.modules_per_channel
    channels = geometry.channels
    period = modules * channels
    # Per-wave concurrency census.  A wave is the set of chunks that
    # arrive at one instant on one channel: the whole stream under an
    # open interleaving run, one request otherwise.
    pooled = (mode == "open" and subsystem.policy.interleaves
              and not is_write)
    pooled_counts = [0] * period if pooled else []
    multi_channel = False
    module_reuse = False
    excess = False
    for request in requests:
        if request.size <= 0:
            continue
        first_rest = request.address // row_bytes
        last_rest = (request.address + request.size - 1) // row_bytes
        chunks = last_rest - first_rest + 1
        # channel = (rest // modules) % channels: any two consecutive
        # module-blocks land on different channels when there is more
        # than one, so a request spans channels iff it spans blocks.
        if channels > 1 and last_rest // modules != first_rest // modules:
            multi_channel = True
        if is_write:
            if chunks > period:
                module_reuse = True
        elif pooled:
            # rest % period pins both module (rest % modules) and
            # channel ((rest % period) // modules), so accumulating by
            # rotation position is exact.
            base, extra = divmod(chunks, period)
            if base:
                pooled_counts = [count + base for count in pooled_counts]
            for step in range(extra):
                pooled_counts[(first_rest + step) % period] += 1
        elif chunks > pair_count * period:
            excess = True
    if pooled and any(count > pair_count for count in pooled_counts):
        excess = True
    if module_reuse:
        reasons.append("write request re-uses a module")
    if excess:
        reasons.append(
            f"per-module read concurrency exceeds the {pair_count} "
            "buffer pairs")
    if multi_channel and subsystem._metrics_on:
        # The shared sched.interleave.overlap_ns counter and dynamic
        # per-partition hit counters accumulate in cross-channel
        # chronological order under the interpreted engine; the kernel
        # drains channel-major, so float-sum order would diverge.
        reasons.append("multi-channel request under an active "
                       "metrics registry")
    return reasons


class _ChunkState:
    """Working record of one chunk as it moves through a wave."""

    __slots__ = ("chunk", "module_index", "module", "partition", "row",
                 "upper", "lower", "buffer_id", "need_pre", "need_act",
                 "end", "piece")

    chunk: "ChunkPlan"
    module_index: int
    module: "PramModule"
    partition: int
    row: int
    upper: int
    lower: int
    buffer_id: int
    need_pre: bool
    need_act: bool
    end: float
    piece: typing.Tuple[int, bytes]


#: One channel's planned chunk states: ``(channel index, states)``.
_ChannelGroup = typing.Tuple[int, typing.List[_ChunkState]]


class CompiledKernel:
    """Flat-loop executor over an eligible subsystem.

    The kernel mirrors the interpreted schedule analytically: per
    channel it keeps one bus-clock (the FIFO bus grant chain is
    ``grant = max(previous hold end, request time)``), issues command
    packets and array phases from the module's timing model, and
    applies device
    state through the module's ``latch_*`` state halves in the same
    order the event loop would have.  At the end it
    :meth:`~repro.sim.engine.Simulator.fast_forward`\\ s the simulator
    clock so interpreted and compiled phases compose within one run.
    """

    def __init__(self, subsystem: "PramSubsystem") -> None:
        self.subsystem = subsystem
        self.sim = subsystem.sim
        self.timing = subsystem.channels[0].modules[0].timing
        self._bus_free = [0.0] * len(subsystem.channels)
        self._np = load_numpy()

    # ------------------------------------------------------------------
    # Stream drivers
    # ------------------------------------------------------------------
    def run(self, requests: typing.Sequence["MemoryRequest"],
            mode: str) -> None:
        """Service the whole stream; leaves ``sim.now`` at completion."""
        if mode == "closed":
            self._run_closed(requests)
        else:
            self._run_open(requests)

    def _run_closed(self, requests: typing.Sequence["MemoryRequest"]
                    ) -> None:
        """One request in flight at a time (the next submits at the
        previous completion instant) — the perf-benchmark shape."""
        sim = self.sim
        for request in requests:
            arrival = sim.now
            self._submit(request, arrival)
            grouped = self._plan(request)
            for channel_index, states in grouped:
                self._drain_wave(channel_index, arrival, states)
            end = max(state.end for _, states in grouped
                      for state in states)
            sim.fast_forward(end)
            self._complete(request, end,
                           [state.piece for _, states in grouped
                            for state in states])

    def _run_open(self, requests: typing.Sequence["MemoryRequest"]
                  ) -> None:
        """All requests submitted at one instant, in flight together."""
        sim = self.sim
        start = sim.now
        groups: typing.List[typing.List[_ChannelGroup]] = []
        for request in requests:
            self._submit(request, start)
            groups.append(self._plan(request))
        if self.subsystem.policy.interleaves:
            # Chunks pool per channel; the wave order is the chunk
            # process creation order of the interpreted engine:
            # request-major, then channel, then chunk.
            pooled: typing.Dict[int, typing.List[_ChunkState]] = {}
            for grouped in groups:
                for channel_index, states in grouped:
                    pooled.setdefault(channel_index, []).extend(states)
            for channel_index in sorted(pooled):
                self._drain_wave(channel_index, start,
                                 pooled[channel_index])
        else:
            # Bare-metal ordering: the serial lock hands each channel
            # to one request at a time, FIFO in submission order; the
            # next group starts at the previous group's last chunk end.
            chains: typing.Dict[
                int, typing.List[typing.List[_ChunkState]]] = {}
            for grouped in groups:
                for channel_index, states in grouped:
                    chains.setdefault(channel_index, []).append(states)
            for channel_index in sorted(chains):
                arrival = start
                for states in chains[channel_index]:
                    self._drain_wave(channel_index, arrival, states)
                    arrival = max(state.end for state in states)
        ends = [max(state.end for _, states in grouped
                    for state in states) for grouped in groups]
        # Completion bookkeeping runs in chronological order; ties fall
        # back to submission order, which the tie-break-independence
        # precondition makes observationally equivalent.
        for index in sorted(range(len(requests)),
                            key=lambda i: (ends[i], i)):
            self._complete(requests[index], ends[index],
                           [state.piece for _, states in groups[index]
                            for state in states])
        sim.fast_forward(max(ends))

    # ------------------------------------------------------------------
    # Request bookkeeping (mirrors PramSubsystem.submit exactly)
    # ------------------------------------------------------------------
    def _submit(self, request: "MemoryRequest", now: float) -> None:
        subsystem = self.subsystem
        request.submit_time = now
        if subsystem._metrics_on:
            subsystem._inflight += 1
            subsystem.queue_depth.record(now, float(subsystem._inflight))

    def _complete(self, request: "MemoryRequest", end: float,
                  pieces: typing.List[typing.Tuple[int, bytes]]) -> None:
        subsystem = self.subsystem
        request.complete_time = end
        sketch = subsystem.latency_sketches.get(request.op.value)
        if sketch is not None:
            sketch.add(request.latency)
        if subsystem._metrics_on:
            subsystem._inflight -= 1
            subsystem.queue_depth.record(end,
                                         float(subsystem._inflight))
            subsystem.request_latency.add(request.latency)
        pieces.sort(key=lambda piece: piece[0])
        request.result = b"".join(data for _, data in pieces)
        subsystem.requests_completed += 1

    def _plan(self, request: "MemoryRequest"
              ) -> typing.List[_ChannelGroup]:
        """Planner chunks resolved into per-channel working states.

        Eligibility guarantees wear leveling and row retirement are
        off, so the logical row *is* the physical row.
        """
        subsystem = self.subsystem
        channels = subsystem.channels
        by_channel: typing.Dict[int, typing.List[_ChunkState]] = {}
        for chunk in subsystem.planner.plan(request):
            address = chunk.address
            channel_index = address.channel
            state = _ChunkState()
            state.chunk = chunk
            state.module_index = address.module
            state.module = channels[channel_index].modules[address.module]
            state.partition = address.partition
            state.row = address.row
            states = by_channel.get(channel_index)
            if states is None:
                states = by_channel[channel_index] = []
            states.append(state)
        return [(channel_index, by_channel[channel_index])
                for channel_index in sorted(by_channel)]

    # ------------------------------------------------------------------
    # Wave drains
    # ------------------------------------------------------------------
    def _drain_wave(self, channel_index: int, arrival: float,
                    states: typing.List[_ChunkState]) -> None:
        """Service one channel's chunks that all arrive at ``arrival``."""
        if states[0].chunk.is_write:
            self._drain_write_wave(channel_index, arrival, states)
        else:
            self._drain_read_wave(channel_index, arrival, states)

    def _drain_read_wave(self, channel_index: int, arrival: float,
                         states: typing.List[_ChunkState]) -> None:
        channel = self.subsystem.channels[channel_index]
        series = channel._pairs_series
        split_row = channel.address_map.split_row
        probe = channel._probe_buffers
        busy_pairs = channel._busy_pairs
        # Probe + pair reservation happen for every chunk at the wave
        # instant, in chunk order, before any command completes —
        # exactly the interpreted process creation order at ``arrival``.
        # The batch-arithmetic precondition is checked in the same
        # pass: one shared phase decision and pairwise-distinct
        # (module, partition) targets, so per-chunk device horizons
        # cannot feed back within the wave.
        first = states[0]
        targets = set()
        uniform = True
        for state in states:
            upper, lower = split_row(state.row)
            state.upper = upper
            state.lower = lower
            if series is not None:
                channel._pairs_in_use += 1
                series.record(arrival, float(channel._pairs_in_use))
            busy = busy_pairs[state.module_index]
            state.buffer_id, state.need_pre, state.need_act = probe(
                state.module, state.partition, state.row, upper,
                state.chunk.buffer_id, busy)
            busy.add(state.buffer_id)
            if (state.need_pre != first.need_pre
                    or state.need_act != first.need_act):
                uniform = False
            targets.add((state.module_index, state.partition))
        if (uniform and first.need_act and len(states) > 1
                and len(targets) == len(states)):
            self._uniform_read_phases(channel, channel_index, arrival,
                                      states)
        else:
            self._general_read_phases(channel, channel_index, arrival,
                                      states)

    def _uniform_read_phases(self, channel: "ChannelController",
                             channel_index: int, arrival: float,
                             states: typing.List[_ChunkState]) -> None:
        """Vectorized phase arithmetic for a homogeneous miss wave."""
        need_pre = states[0].need_pre
        packets = 2 if need_pre else 1
        # Every chunk ships the same packet count, so one PHY call
        # prices the wave; the packet counter is a plain integer sum,
        # so bulk-adding the rest leaves it byte-identical.
        phy = channel.phy
        cost = phy.command_cost(packets)
        if len(states) > 1:
            phy.packets_sent += packets * (len(states) - 1)
        costs = [cost] * len(states)
        start = self._bus_free[channel_index]
        if arrival > start:
            start = arrival
        cmd_ends, act_ends, wakes, durations = self._batch_phases(
            start, costs, need_pre,
            [state.module._partition_busy_until[state.partition]
             for state in states],
            [state.chunk.size for state in states])
        self._bus_free[channel_index] = cmd_ends[-1]
        bus_counter = channel._bus_counter
        note_window = self._note_window
        # Sequential local accumulation is the same float-add chain as
        # per-chunk ``+=`` on the attribute.
        bus_busy = channel.bus_busy_ns
        for state, cmd_end, act_end in zip(states, cmd_ends, act_ends):
            module = state.module
            bus_busy = bus_busy + cost
            if bus_counter is not None:
                bus_counter.add(cost)
            if need_pre:
                module.latch_rab(state.buffer_id, state.upper)
            module.latch_rdb(state.buffer_id, state.partition,
                             state.lower, act_end)
            note_window(channel, state.module_index, state.partition,
                        cmd_end, act_end, cmd_end)
        channel.bus_busy_ns = bus_busy
        # Bursts join the bus FIFO as their array phases finish; equal
        # wake-ups resolve in chunk order (the interpreted heap's
        # insertion-order tie-break over timeouts scheduled in chunk
        # order).  This is :meth:`_finish_burst` unrolled with the
        # per-wave invariants hoisted — same operations, same order.
        bus_free = self._bus_free[channel_index]
        bus_busy = channel.bus_busy_ns
        chunks_read = 0
        telemetry_on = channel._telemetry_on
        pairs_series = channel._pairs_series
        stage_load = channel.datapath.stage_load
        busy_pairs = channel._busy_pairs
        read_latency_add = channel.read_latency.add
        read_sketch_add = channel.read_sketch.add
        # Stable sort on wake alone ≡ (wake, chunk index): range() is
        # already in chunk order.
        for index in sorted(range(len(states)), key=wakes.__getitem__):
            state = states[index]
            wake = wakes[index]
            duration = durations[index]
            grant = bus_free if bus_free > wake else wake
            end = grant + duration
            bus_free = end
            chunk = state.chunk
            data = state.module.stream_rdb(state.buffer_id,
                                           chunk.address.column,
                                           chunk.size)
            bus_busy = bus_busy + duration
            if bus_counter is not None:
                bus_counter.add(duration)
            if telemetry_on:
                overlap = channel._array_overlap(
                    (state.module_index, state.partition), grant, end)
                if overlap > 0.0:
                    channel.overlap_ns += overlap
                    if channel._overlap_counter is not None:
                        channel._overlap_counter.add(overlap)
            stage_load(data)
            busy_pairs[state.module_index].discard(state.buffer_id)
            if pairs_series is not None:
                channel._pairs_in_use -= 1
                pairs_series.record(end, float(channel._pairs_in_use))
            latency = end - arrival
            read_latency_add(latency)
            read_sketch_add(latency)
            chunks_read += 1
            state.end = end
            state.piece = (chunk.offset, data)
        self._bus_free[channel_index] = bus_free
        channel.bus_busy_ns = bus_busy
        channel.chunks_read += chunks_read

    def _batch_phases(self, start: float, costs: typing.List[float],
                      need_pre: bool, ready: typing.List[float],
                      sizes: typing.List[int]) -> typing.Tuple[
                          typing.List[float], typing.List[float],
                          typing.List[float], typing.List[float]]:
        """Elementwise phase times for one uniform wave.

        Returns ``(cmd_ends, act_ends, burst_wakes, burst_durations)``
        as plain Python floats.  The numpy tier and the stdlib tier
        evaluate the *same* IEEE-754 expressions — a seeded sequential
        prefix sum for the command chain, ``max`` against the partition
        horizon, and the engine's ``a + (b - a)`` timeout wake — so
        their outputs are bit-identical.
        """
        timing = self.timing
        np = self._np
        if np is not None:
            seeded = np.empty(len(costs) + 1, dtype=np.float64)
            seeded[0] = start
            seeded[1:] = costs
            cmd = np.cumsum(seeded)[1:]
            device = cmd + timing.pre_active_ns if need_pre else cmd
            begin = np.maximum(device, np.asarray(ready,
                                                  dtype=np.float64))
            act = begin + timing.activate_ns
            wake = cmd + (act - cmd)
            finish = (wake + timing.read_preamble_ns) + np.asarray(
                [timing.burst(size) for size in sizes],
                dtype=np.float64)
            duration = finish - wake
            return (cmd.tolist(), act.tolist(), wake.tolist(),
                    duration.tolist())
        cmd_ends: typing.List[float] = []
        accumulator = start
        for cost in costs:
            accumulator = accumulator + cost
            cmd_ends.append(accumulator)
        act_ends: typing.List[float] = []
        wakes: typing.List[float] = []
        durations: typing.List[float] = []
        for index, cmd_end in enumerate(cmd_ends):
            device = cmd_end + timing.pre_active_ns if need_pre else cmd_end
            horizon = ready[index]
            begin = device if device >= horizon else horizon
            act_end = begin + timing.activate_ns
            wake = cmd_end + (act_end - cmd_end)
            finish = ((wake + timing.read_preamble_ns)
                      + timing.burst(sizes[index]))
            act_ends.append(act_end)
            wakes.append(wake)
            durations.append(finish - wake)
        return cmd_ends, act_ends, wakes, durations

    def _general_read_phases(self, channel: "ChannelController",
                             channel_index: int, arrival: float,
                             states: typing.List[_ChunkState]) -> None:
        """Scalar pass for mixed waves (hits, repeats, lone chunks).

        Pass 1 walks chunks in order: RDB hits burst immediately (they
        join the bus FIFO at the wave instant), misses issue their
        command packets and array phases and defer their burst to the
        array-finish wake-up.  Every pass-1 bus hold completes before
        any deferred burst is granted (deferred requests join the FIFO
        strictly later), so pass 2 replays them in (wake, chunk) order.
        """
        timing = self.timing
        bus_counter = channel._bus_counter
        deferred: typing.List[
            typing.Tuple[float, int, _ChunkState, float]] = []
        for sequence, state in enumerate(states):
            if not state.need_pre and not state.need_act:
                finish = ((arrival + timing.read_preamble_ns)
                          + timing.burst(state.chunk.size))
                self._finish_burst(channel, channel_index, state,
                                   arrival, finish - arrival, arrival)
                continue
            packets = ((1 if state.need_pre else 0)
                       + (1 if state.need_act else 0))
            cost = channel.phy.command_cost(packets)
            grant = self._bus_free[channel_index]
            if arrival > grant:
                grant = arrival
            cmd_end = grant + cost
            self._bus_free[channel_index] = cmd_end
            channel.bus_busy_ns += cost
            if bus_counter is not None:
                bus_counter.add(cost)
            now = cmd_end
            if state.need_pre:
                state.module.latch_rab(state.buffer_id, state.upper)
                now = now + timing.pre_active_ns
            if state.need_act:
                horizon = state.module._partition_busy_until[
                    state.partition]
                begin = now if now >= horizon else horizon
                act_end = begin + timing.activate_ns
                state.module.latch_rdb(state.buffer_id, state.partition,
                                       state.lower, act_end)
                now = act_end
            self._note_window(channel, state.module_index,
                              state.partition, cmd_end, now, cmd_end)
            wake = cmd_end + (now - cmd_end) if now > cmd_end else cmd_end
            finish = ((wake + timing.read_preamble_ns)
                      + timing.burst(state.chunk.size))
            deferred.append((wake, sequence, state, finish - wake))
        deferred.sort(key=lambda item: (item[0], item[1]))
        for wake, _, state, duration in deferred:
            self._finish_burst(channel, channel_index, state, wake,
                               duration, arrival)

    def _finish_burst(self, channel: "ChannelController",
                      channel_index: int, state: _ChunkState,
                      request_time: float, duration: float,
                      chunk_start: float) -> None:
        """Grant the data burst and run all completion bookkeeping."""
        chunk = state.chunk
        grant = self._bus_free[channel_index]
        if request_time > grant:
            grant = request_time
        end = grant + duration
        self._bus_free[channel_index] = end
        data = state.module.stream_rdb(state.buffer_id,
                                       chunk.address.column, chunk.size)
        channel.bus_busy_ns += duration
        if channel._bus_counter is not None:
            channel._bus_counter.add(duration)
        if channel._telemetry_on:
            overlap = channel._array_overlap(
                (state.module_index, state.partition), grant, end)
            if overlap > 0.0:
                channel.overlap_ns += overlap
                if channel._overlap_counter is not None:
                    channel._overlap_counter.add(overlap)
        channel.datapath.stage_load(data)
        channel._busy_pairs[state.module_index].discard(state.buffer_id)
        if channel._pairs_series is not None:
            channel._pairs_in_use -= 1
            channel._pairs_series.record(end,
                                         float(channel._pairs_in_use))
        latency = end - chunk_start
        channel.read_latency.add(latency)
        channel.read_sketch.add(latency)
        channel.chunks_read += 1
        state.end = end
        state.piece = (chunk.offset, data)

    def _drain_write_wave(self, channel_index: int, arrival: float,
                          states: typing.List[_ChunkState]) -> None:
        """Closed-mode write wave: one chunk per module (eligibility),
        staging bursts chained over the bus, array programs through the
        module's own timed entry points."""
        channel = self.subsystem.channels[channel_index]
        timing = self.timing
        bus_counter = channel._bus_counter
        completions: typing.List[typing.Tuple[float, int, float]] = []
        for sequence, state in enumerate(states):
            chunk = state.chunk
            module = state.module
            payload = chunk.payload
            assert payload is not None
            channel.datapath.stage_store(payload)
            stage_finish = module.stage_program(
                arrival, state.partition, state.row,
                chunk.address.column, payload)
            duration = stage_finish - arrival
            grant = self._bus_free[channel_index]
            if arrival > grant:
                grant = arrival
            end = grant + duration
            self._bus_free[channel_index] = end
            channel.bus_busy_ns += duration
            if bus_counter is not None:
                bus_counter.add(duration)
            module.execute_program(end, req=chunk.request.request_id)
            ready = module.partition_ready_at(state.partition)
            self._note_window(channel, state.module_index,
                              state.partition, end, ready, end)
            now = end
            while ready > now:
                now = now + (ready - now)
                ready = module.partition_ready_at(state.partition)
            recovery = timing.write_recovery_ns
            if recovery > 0:
                now = now + recovery
            completions.append((now, sequence, now - arrival))
            state.end = now
            state.piece = (chunk.offset, b"")
        # The interpreted engine records each chunk's latency at its
        # completion event, so cross-module waves interleave samples in
        # completion order, FIFO on ties — the float accumulators are
        # order-sensitive, so replay that order here.
        completions.sort(key=lambda item: (item[0], item[1]))
        for _, _, latency in completions:
            channel.write_latency.add(latency)
            channel.write_sketch.add(latency)
            channel.chunks_written += 1

    def _note_window(self, channel: "ChannelController",
                     module_index: int, partition: int, start: float,
                     end: float, now: float) -> None:
        """``ChannelController._note_array_window`` with an explicit
        ``now`` — the kernel's clock runs ahead of ``sim.now``, so the
        prune floor must come from the schedule, not the simulator."""
        if not channel._telemetry_on or end <= start:
            return
        windows = channel._array_windows
        if len(windows) > 64:
            floor = now - 10_000.0
            windows = [w for w in windows if w[1] > floor]
            channel._array_windows = windows
        windows.append((start, end, (module_index, partition)))
