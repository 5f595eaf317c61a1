"""Seeded, deterministic fault plans for the PRAM stack.

The paper's 3x-nm engineering samples are real phase-change devices:
cells wear out under repeated RESET/SET pulses, SET passes fail and
must be verified and retried, and partitions stall under contention.
:class:`FaultConfig` describes *which* of those behaviours to inject
and how hard; :class:`FaultState` turns the plan into concrete fault
decisions.

Reproducibility is the design center.  Every decision is a pure
function of ``(seed, category, site, per-site draw index)`` hashed
through BLAKE2b — no shared RNG stream, no ``PYTHONHASHSEED``
dependence — so the decision at one site never depends on how fault
sites interleave across modules, channels, or worker processes.  A
fixed seed therefore produces the same faults serially and under the
parallel experiment runner, and repeated runs are bit-identical.

Null plans cost nothing: every injection entry point is guarded by a
precomputed ``*_on`` flag, so a plan whose probabilities are all zero
performs no hashing and leaves timing and data byte-identical to a run
with no plan at all.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
import typing

from repro.telemetry.metrics import Counter, current_metrics

#: Keys of ``--faults`` key=value specs: alias -> field.  Full field
#: names are accepted too.
_PLAN_KEYS: typing.Dict[str, str] = {
    "seed": "seed",
    "read_flip": "read_flip_probability",
    "double_flip": "read_double_flip_probability",
    "program_fail": "program_fail_probability",
    "wear_factor": "wear_fail_factor",
    "endurance": "endurance_budget",
    "stall": "partition_stall_probability",
    "stall_ns": "partition_stall_ns",
    "retries": "max_program_retries",
    "backoff_ns": "retry_backoff_ns",
    "spares": "spare_rows_per_partition",
}


def parse_plan(cls: type, spec: str, kind: str,
               aliases: typing.Mapping[str, str]
               ) -> typing.Dict[str, typing.Any]:
    """Field values of dataclass ``cls`` from a ``key=value,...`` spec.

    A key is an alias from ``aliases`` or a full field name, and each
    value converts by its field's declared type: ``int`` (also
    ``Optional[int]``), ``str``, or ``float`` for every other field.
    Raises :class:`ValueError` naming the offending key or field on any
    nonsense input; ``kind`` (``"fault-plan"``, ``"service-plan"``)
    prefixes the messages.
    """
    spec = spec.strip()
    if not spec:
        raise ValueError(f"empty {kind} spec")
    types = typing.get_type_hints(cls)
    values: typing.Dict[str, typing.Any] = {}
    for item in spec.split(","):
        item = item.strip()
        if not item:
            continue
        key, sep, raw = item.partition("=")
        key = key.strip()
        if not sep:
            raise ValueError(f"{kind} entry {item!r} is not key=value")
        field = aliases.get(key, key)
        if field not in types:
            known = ", ".join(sorted(aliases))
            raise ValueError(f"unknown {kind} key {key!r} (known: {known})")
        hint = types[field]
        convert: typing.Callable[[str], typing.Any] = (
            int if int in (hint, *typing.get_args(hint))
            else str if hint is str else float)
        try:
            values[field] = convert(raw.strip())
        except ValueError:
            raise ValueError(
                f"{field} expects a number, got {raw.strip()!r}") from None
    return values


@dataclasses.dataclass(frozen=True)
class FaultConfig:
    """One reproducible fault-injection plan.

    All probabilities are per *site* (per row read, per word program,
    per partition occupation), not per bit.  ``endurance_budget`` is
    the write count at which a word becomes permanently stuck; below
    it, ``wear_fail_factor`` scales the transient program-failure
    probability linearly with the word's consumed endurance fraction.
    """

    seed: int = 0
    #: Probability a read burst carries one flipped bit.
    read_flip_probability: float = 0.0
    #: Probability a flipped burst carries a *second* flip in the same
    #: ECC codeword (detected-uncorrectable under SEC-DED).
    read_double_flip_probability: float = 0.0
    #: Baseline per-word transient program (SET pass) failure rate.
    program_fail_probability: float = 0.0
    #: Extra failure probability at full endurance consumption.
    wear_fail_factor: float = 0.0
    #: Write count at which a word is permanently worn out (stuck-at).
    endurance_budget: typing.Optional[int] = None
    #: Probability one partition occupation stretches by ``stall_ns``.
    partition_stall_probability: float = 0.0
    #: Length of one injected stuck-busy window.
    partition_stall_ns: float = 0.0
    #: Bounded program-and-verify retries before a row is retired.
    max_program_retries: int = 3
    #: Wait between verify and re-program (device settle time).
    retry_backoff_ns: float = 200.0
    #: Spare rows reserved per partition for bad-row retirement.
    spare_rows_per_partition: int = 8

    def __post_init__(self) -> None:
        for field in ("read_flip_probability",
                      "read_double_flip_probability",
                      "program_fail_probability",
                      "partition_stall_probability"):
            value = getattr(self, field)
            if math.isnan(value):
                raise ValueError(f"{field} must not be NaN")
            if not 0.0 <= value <= 1.0:
                raise ValueError(
                    f"{field} must be within [0, 1], got {value}")
        if math.isnan(self.wear_fail_factor):
            raise ValueError("wear_fail_factor must not be NaN")
        if self.wear_fail_factor < 0.0:
            raise ValueError(
                f"wear_fail_factor must be >= 0, got "
                f"{self.wear_fail_factor}")
        if self.endurance_budget is not None and self.endurance_budget < 1:
            raise ValueError(
                f"endurance_budget must be >= 1, got "
                f"{self.endurance_budget}")
        for field in ("partition_stall_ns", "retry_backoff_ns"):
            value = getattr(self, field)
            if math.isnan(value):
                raise ValueError(f"{field} must not be NaN")
            if value < 0.0:
                raise ValueError(f"{field} must be >= 0, got {value}")
        if self.max_program_retries < 0:
            raise ValueError(
                f"max_program_retries must be >= 0, got "
                f"{self.max_program_retries}")
        if self.spare_rows_per_partition < 0:
            raise ValueError(
                f"spare_rows_per_partition must be >= 0, got "
                f"{self.spare_rows_per_partition}")

    @property
    def can_fail_programs(self) -> bool:
        """True if this plan can ever make a program (SET pass) fail.

        Only such plans reserve spare rows (and shrink the start-gap
        rotation): a plan that cannot fail programs never retires a
        row, so reserving spares would change address behaviour for
        nothing — and break null-plan byte-identity.
        """
        return (self.program_fail_probability > 0.0
                or self.wear_fail_factor > 0.0
                or self.endurance_budget is not None)

    @property
    def is_null(self) -> bool:
        """True if no fault of any category can ever fire."""
        return (not self.can_fail_programs
                and self.read_flip_probability == 0.0
                and (self.partition_stall_probability == 0.0
                     or self.partition_stall_ns == 0.0))

    @classmethod
    def parse(cls, spec: str) -> "FaultConfig":
        """Build a plan from a ``key=value,key=value`` CLI spec.

        Keys are the aliases in the README's Reliability section
        (``seed``, ``read_flip``, ``program_fail``, ``endurance``, ...)
        or full field names.  Raises :class:`ValueError` naming the
        offending key or field on any nonsense input.
        """
        return cls(**parse_plan(cls, spec, "fault-plan", _PLAN_KEYS))


def compose_service_retries(budget: int,
                            plan: typing.Optional[FaultConfig]) -> int:
    """Service-side retry budget after the device layer's claim.

    The retry-composition contract between :mod:`repro.service` and
    this package: ``budget`` is the **end-to-end** replay budget for
    one request's data, and the device's bounded program-and-verify
    retries (``max_program_retries``) spend from it *first*.  The
    service layer may only replay a request with whatever remains, so
    stacking a service retry policy on a fault plan tightens rather
    than multiplies the total retry work — the anti-amplification
    property that prevents retry storms under overload.  Without a
    plan the device never retries and the service keeps the full
    budget.
    """
    if budget < 0:
        raise ValueError(f"retry budget must be >= 0, got {budget}")
    if plan is None:
        return budget
    return max(0, budget - plan.max_program_retries)


class FaultState:
    """Runtime fault decisions + counters for one subsystem instance.

    One instance is shared by all channels and modules of a
    :class:`~repro.controller.controller.PramSubsystem`; fault sites
    are keyed by (channel, module, partition, row[, word]) so sharing
    never couples decisions across sites.
    """

    def __init__(self, config: FaultConfig) -> None:
        self.config = config
        # Precomputed entry-point guards: the hot paths check one
        # attribute and skip all hashing when a category is disabled.
        self.read_faults_on = config.read_flip_probability > 0.0
        self.program_faults_on = config.can_fail_programs
        self.stalls_on = (config.partition_stall_probability > 0.0
                          and config.partition_stall_ns > 0.0)
        self._site_draws: typing.Dict[typing.Tuple, int] = {}
        #: Permanently worn-out words: (ch, mod, partition, row, word).
        self.stuck_words: typing.Set[typing.Tuple[int, int, int, int, int]]
        self.stuck_words = set()
        # Injection counts.
        self.read_flips_injected = 0
        self.program_word_failures = 0
        self.partition_stalls = 0
        self.partition_stall_ns_total = 0.0
        # Resilience outcomes (fed back by the controller).
        self.ecc_corrected_bits = 0
        self.ecc_uncorrectable = 0
        self.retry_attempts = 0
        self.retries_exhausted = 0
        self.rows_retired = 0
        self.retire_failures = 0
        self.requests_corrected = 0
        self.requests_degraded = 0
        self.requests_failed = 0
        metrics = current_metrics()
        self._counters: typing.Optional[typing.Dict[str, Counter]] = None
        if metrics.enabled:
            self._counters = {
                name: metrics.counter(f"faults.{name}")
                for name in ("injected.read_flips",
                             "injected.program_word_failures",
                             "injected.stuck_words",
                             "injected.partition_stall_ns",
                             "ecc.corrected_bits",
                             "ecc.uncorrectable",
                             "retry.attempts",
                             "retry.exhausted",
                             "rows.retired",
                             "rows.retire_failed")
            }

    # ------------------------------------------------------------------
    # The deterministic draw
    # ------------------------------------------------------------------
    def _draw(self, category: str, key: typing.Tuple) -> float:
        """Uniform [0, 1) draw for one (category, site) pair.

        Each site keeps its own draw counter, so the value sequence at
        a site is independent of how sites interleave — the property
        that makes serial and ``--jobs N`` runs inject identical
        faults.
        """
        site = (category,) + key
        index = self._site_draws.get(site, 0)
        self._site_draws[site] = index + 1
        payload = repr((self.config.seed, index) + site).encode()
        digest = hashlib.blake2b(payload, digest_size=8).digest()
        return int.from_bytes(digest, "big") / 2.0 ** 64

    # ------------------------------------------------------------------
    # Fault decisions (called from the device model)
    # ------------------------------------------------------------------
    def read_flip_bits(self, channel: int, module: int, partition: int,
                       row: int, size: int) -> typing.Tuple[int, ...]:
        """Bit positions to flip in one ``size``-byte read burst."""
        config = self.config
        if config.read_flip_probability <= 0.0 or size <= 0:
            return ()
        key = (channel, module, partition, row)
        if self._draw("read", key) >= config.read_flip_probability:
            return ()
        bit_count = size * 8
        first = min(int(self._draw("read_bit", key) * bit_count),
                    bit_count - 1)
        bits = [first]
        if (config.read_double_flip_probability > 0.0
                and self._draw("read_double", key)
                < config.read_double_flip_probability):
            # The second flip lands in the same 64-bit codeword so the
            # pair is detected-uncorrectable under SEC-DED.
            base = (first // 64) * 64
            width = min(64, bit_count - base)
            second = base + min(int(self._draw("read_bit2", key) * width),
                                width - 1)
            if second == first:
                second = base + (first - base + 1) % width
            if second != first:
                bits.append(second)
        self.read_flips_injected += len(bits)
        if self._counters is not None:
            self._counters["injected.read_flips"].add(len(bits))
        return tuple(sorted(bits))

    def program_word_failures_for(
            self, channel: int, module: int, partition: int, row: int,
            words: typing.Sequence[int],
            wear_of: typing.Callable[[int], int]) -> typing.List[int]:
        """Which of ``words`` fail their SET pass in this program.

        ``wear_of`` maps a word index to its consumed write count
        (*after* the pulse being judged).  Words at or past the
        endurance budget become permanently stuck; below it the
        transient failure probability rises linearly with wear.
        """
        config = self.config
        budget = config.endurance_budget
        failed: typing.List[int] = []
        for word in words:
            site = (channel, module, partition, row, word)
            if site in self.stuck_words:
                failed.append(word)
                continue
            wear = wear_of(word)
            if budget is not None and wear >= budget:
                self.stuck_words.add(site)
                if self._counters is not None:
                    self._counters["injected.stuck_words"].add()
                failed.append(word)
                continue
            probability = config.program_fail_probability
            if budget is not None and config.wear_fail_factor > 0.0:
                probability = min(
                    1.0, probability
                    + config.wear_fail_factor * (wear / budget))
            if probability <= 0.0:
                continue
            if self._draw("program", site) < probability:
                failed.append(word)
        if failed:
            self.program_word_failures += len(failed)
            if self._counters is not None:
                self._counters["injected.program_word_failures"].add(
                    len(failed))
        return failed

    def partition_stall(self, channel: int, module: int,
                        partition: int) -> float:
        """Extra busy ns injected into one partition occupation."""
        config = self.config
        key = (channel, module, partition)
        if self._draw("stall", key) >= config.partition_stall_probability:
            return 0.0
        self.partition_stalls += 1
        self.partition_stall_ns_total += config.partition_stall_ns
        if self._counters is not None:
            self._counters["injected.partition_stall_ns"].add(
                config.partition_stall_ns)
        return config.partition_stall_ns

    # ------------------------------------------------------------------
    # Resilience outcomes (called from the controller)
    # ------------------------------------------------------------------
    def note_ecc(self, corrected_bits: int, uncorrectable: int) -> None:
        """Account one SEC-DED decode on the read datapath."""
        self.ecc_corrected_bits += corrected_bits
        self.ecc_uncorrectable += uncorrectable
        if self._counters is not None:
            if corrected_bits:
                self._counters["ecc.corrected_bits"].add(corrected_bits)
            if uncorrectable:
                self._counters["ecc.uncorrectable"].add(uncorrectable)

    def note_retry(self) -> None:
        """Account one program-and-verify retry pass."""
        self.retry_attempts += 1
        if self._counters is not None:
            self._counters["retry.attempts"].add()

    def note_retries_exhausted(self) -> None:
        """Account one row whose bounded retries all failed."""
        self.retries_exhausted += 1
        if self._counters is not None:
            self._counters["retry.exhausted"].add()

    def note_row_retired(self) -> None:
        """Account one bad row remapped to a spare."""
        self.rows_retired += 1
        if self._counters is not None:
            self._counters["rows.retired"].add()

    def note_retire_failed(self) -> None:
        """Account one retirement that found no spare row left."""
        self.retire_failures += 1
        if self._counters is not None:
            self._counters["rows.retire_failed"].add()

    def counts(self) -> typing.Dict[str, float]:
        """Aggregate injection + resilience counters."""
        return {
            "read_flips_injected": float(self.read_flips_injected),
            "program_word_failures": float(self.program_word_failures),
            "stuck_words": float(len(self.stuck_words)),
            "partition_stalls": float(self.partition_stalls),
            "partition_stall_ns": self.partition_stall_ns_total,
            "ecc_corrected_bits": float(self.ecc_corrected_bits),
            "ecc_uncorrectable": float(self.ecc_uncorrectable),
            "retry_attempts": float(self.retry_attempts),
            "retries_exhausted": float(self.retries_exhausted),
            "rows_retired": float(self.rows_retired),
            "retire_failures": float(self.retire_failures),
            "requests_corrected": float(self.requests_corrected),
            "requests_degraded": float(self.requests_degraded),
            "requests_failed": float(self.requests_failed),
        }
