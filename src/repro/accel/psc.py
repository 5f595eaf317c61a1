"""The power/sleep controller (PSC).

The server uses the PSC to park agents while it installs their boot
addresses and to wake them for execution (Figure 9b steps ③-⑤).  The
PSC also keeps per-PE state-residency clocks, which the energy model
converts to joules at the per-state power levels.
"""

from __future__ import annotations

import enum
import typing

from repro.sim import Counter, Simulator, TimeSeries
from repro.telemetry.metrics import current_metrics
from repro.telemetry.timeseries import Sampler

#: State-transition latencies, ns (clock/power gating sequencing).
SLEEP_TRANSITION_NS = 500.0
WAKE_TRANSITION_NS = 2_000.0


class PeState(enum.Enum):
    """Power states a PE can occupy."""

    SLEEP = "sleep"    # power-gated by the PSC
    IDLE = "idle"      # awake, waiting (e.g. memory stall)
    ACTIVE = "active"  # retiring instructions


#: Numeric level per state for the recorded timeline.
_STATE_LEVEL = {PeState.SLEEP: 0, PeState.IDLE: 1, PeState.ACTIVE: 2}


class PowerSleepController:
    """Tracks and switches the power state of every PE."""

    def __init__(self, sim: Simulator, pe_count: int) -> None:
        if pe_count < 1:
            raise ValueError(f"need at least one PE, got {pe_count}")
        self.sim = sim
        self.pe_count = pe_count
        self._state = [PeState.SLEEP] * pe_count
        self._since = [0.0] * pe_count
        self._residency: typing.List[typing.Dict[PeState, float]] = [
            {state: 0.0 for state in PeState} for _ in range(pe_count)
        ]
        self.transitions = 0
        self._awake_pes = 0
        self._awake_series: TimeSeries | None = None
        self._metrics = current_metrics()
        if self._metrics.enabled:
            prefix = self._metrics.component_prefix("psc")
            sampler = sim.sampler
            if isinstance(sampler, Sampler):
                # Windowed power envelope: time-weighted count of PEs
                # out of sleep (idle or active) per sampling window.
                # No registry holds the count's own series, so it adds
                # nothing to what a run exports.
                self._awake_series = TimeSeries("psc.awake_pes")
                sampler.track(f"{prefix}.window.awake_pes",
                              self._awake_series)
            # Numeric state timeline per PE (0=sleep, 1=idle, 2=active):
            # the per-PE run/sleep timeline the profile dashboard shows.
            self._state_series: typing.List[TimeSeries] | None = [
                self._metrics.series(f"{prefix}.pe{pe}.state")
                for pe in range(pe_count)
            ]
            self._transition_counter: Counter | None = (
                self._metrics.counter(f"{prefix}.transitions"))
            for pe in range(pe_count):
                self._state_series[pe].record(
                    sim.now, float(_STATE_LEVEL[PeState.SLEEP]))
        else:
            self._state_series = None
            self._transition_counter = None

    def state(self, pe_id: int) -> PeState:
        """Current state of one PE."""
        self._check(pe_id)
        return self._state[pe_id]

    def set_state(self, pe_id: int, state: PeState) -> None:
        """Zero-time state change (PE-internal active/idle switches)."""
        self._check(pe_id)
        self._accumulate(pe_id)
        if state is not self._state[pe_id]:
            self.transitions += 1
            if self._transition_counter is not None:
                self._transition_counter.add()
            if self._awake_series is not None:
                was_awake = self._state[pe_id] is not PeState.SLEEP
                is_awake = state is not PeState.SLEEP
                if is_awake != was_awake:
                    self._awake_pes += 1 if is_awake else -1
                    self._awake_series.record(self.sim.now,
                                              float(self._awake_pes))
            if self._state_series is not None:
                self._state_series[pe_id].record(
                    self.sim.now, float(_STATE_LEVEL[state]))
            tracer = self.sim.tracer
            if tracer.enabled:
                tracer.instant(f"pe{pe_id}->{state.value}", "psc",
                               self.sim.now)
        self._state[pe_id] = state

    def sleep(self, pe_id: int) -> typing.Generator:
        """Process body: power-gate a PE."""
        self._check(pe_id)
        yield self.sim.timeout(SLEEP_TRANSITION_NS)
        self.set_state(pe_id, PeState.SLEEP)

    def wake(self, pe_id: int) -> typing.Generator:
        """Process body: bring a PE out of sleep into idle."""
        self._check(pe_id)
        if self._state[pe_id] is not PeState.SLEEP:
            raise ValueError(f"PE {pe_id} is not asleep")
        yield self.sim.timeout(WAKE_TRANSITION_NS)
        self.set_state(pe_id, PeState.IDLE)

    def residency(self, pe_id: int) -> typing.Dict[PeState, float]:
        """Nanoseconds spent in each state, up to the current instant."""
        self._check(pe_id)
        self._accumulate(pe_id)
        return dict(self._residency[pe_id])

    # ------------------------------------------------------------------
    def _accumulate(self, pe_id: int) -> None:
        now = self.sim.now
        elapsed = now - self._since[pe_id]
        if elapsed > 0:
            self._residency[pe_id][self._state[pe_id]] += elapsed
            if self._metrics.enabled:
                # Record under the owning PE's *assigned* prefix so a
                # multi-system run keeps each PE's clock distinct.
                self._metrics.gauge(
                    f"{self._metrics.latest_prefix(f'pe.{pe_id}')}.sleep_ns",
                    self._residency[pe_id][PeState.SLEEP])
        self._since[pe_id] = now

    def _check(self, pe_id: int) -> None:
        if not 0 <= pe_id < self.pe_count:
            raise ValueError(f"PE id {pe_id} out of range")
