"""Table II parameters and the Section II-A geometry.

All times are nanoseconds; the LPDDR2-NVM interface clock (tCK) is
2.5 ns, i.e. the 400 MHz the paper's PHY runs at.  Latencies that
Table II expresses in cycles are converted through tCK.
"""

from __future__ import annotations

import dataclasses
import functools

#: LPDDR2-NVM interface clock period at 400 MHz (Table II: tCK = 2.5 ns).
TCK_NS = 2.5

#: Array program latency when every target word is pristine, i.e. only
#: the SET pass is needed (Table II: "PRAM write 10 us", lower bound).
PRAM_WRITE_PRISTINE_NS = 10_000.0

#: Array program latency for an overwrite: RESET pass then SET pass
#: (Table II / Section VI: overwrites require an extra 8 us).
PRAM_WRITE_OVERWRITE_NS = 18_000.0

#: Latency of programming an all-zero word, which is a RESET-only pulse
#: train — the primitive selective erasing issues in advance.  RESET
#: pulses are much shorter than SET (Figure 2b), so the RESET pass is
#: the overwrite latency minus the pristine (SET-only) program.
PRAM_RESET_ONLY_LATENCY_NS = PRAM_WRITE_OVERWRITE_NS - PRAM_WRITE_PRISTINE_NS

#: Whole-partition erase latency (Section V-A: "around 60 ms, which is
#: 3K times longer than that of an overwrite").
PRAM_ERASE_LATENCY_NS = 60_000_000.0

#: End-to-end read latency quoted in Section VI ("around 100 ns,
#: including three-phase addressing"); used as a sanity anchor by tests.
PRAM_READ_LATENCY_NS = 100.0


@dataclasses.dataclass(frozen=True)
class PramTimingParams:
    """LPDDR2-NVM timing parameters (Table II).

    Attributes expressed in cycles are multiplied by :attr:`tck_ns`
    through the ``*_ns`` properties.
    """

    read_latency_cycles: int = 6       # RL
    write_latency_cycles: int = 3      # WL
    tck_ns: float = TCK_NS             # tCK
    trp_cycles: int = 3                # tRP (pre-active)
    trcd_ns: float = 80.0              # tRCD (activate)
    tdqsck_ns: float = 2.5             # tDQSCK (min of 2.5-5.5 range)
    tdqss_ns: float = 0.75             # tDQSS (min of 0.75-1.25 range)
    twr_ns: float = 15.0               # tWRA write recovery
    burst_length: int = 16             # BL16: tBURST = 16 cycles
    write_pristine_ns: float = PRAM_WRITE_PRISTINE_NS
    write_overwrite_ns: float = PRAM_WRITE_OVERWRITE_NS
    reset_only_ns: float = PRAM_RESET_ONLY_LATENCY_NS
    erase_ns: float = PRAM_ERASE_LATENCY_NS

    def __post_init__(self) -> None:
        if self.burst_length not in (4, 8, 16):
            raise ValueError(
                f"burst length must be BL4/BL8/BL16, got {self.burst_length}"
            )
        if self.tck_ns <= 0:
            raise ValueError(f"tCK must be positive, got {self.tck_ns}")

    @property
    def rl_ns(self) -> float:
        """Read latency (RL) in nanoseconds."""
        return self.read_latency_cycles * self.tck_ns

    @property
    def wl_ns(self) -> float:
        """Write latency (WL) in nanoseconds."""
        return self.write_latency_cycles * self.tck_ns

    @property
    def trp_ns(self) -> float:
        """Pre-active (RAB update) time in nanoseconds."""
        return self.trp_cycles * self.tck_ns

    @property
    def tburst_ns(self) -> float:
        """Data burst time: burst_length cycles (Table II: 4/8/16)."""
        return self.burst_length * self.tck_ns


@dataclasses.dataclass(frozen=True)
class PramGeometry:
    """Physical organization of the PRAM subsystem (Section II-A).

    A *module* (chip/package) holds one bank of ``partitions_per_bank``
    partitions.  Each partition has 64 resistive tiles of 2048 bitlines
    by 4096 wordlines, which the bank's sense amplifiers expose as
    32-byte (256-bit) rows through the RDBs.
    """

    channels: int = 2
    modules_per_channel: int = 16
    partitions_per_bank: int = 16
    tiles_per_partition: int = 64
    bitlines_per_tile: int = 2048
    wordlines_per_tile: int = 4096
    row_bytes: int = 32        # 256-bit bank-level parallel I/O
    word_bytes: int = 4        # program unit (word) for cell-state tracking
    rab_count: int = 4         # Table II: RAB = 4
    rdb_count: int = 4         # Table II: 4 RDBs of 32 B
    lower_row_bits: int = 7    # row bits delivered directly per activate

    def __post_init__(self) -> None:
        for field in dataclasses.fields(self):
            if getattr(self, field.name) < 1:
                raise ValueError(f"{field.name} must be >= 1")
        if self.row_bytes % self.word_bytes:
            raise ValueError("row_bytes must be a multiple of word_bytes")
        bits = (self.tiles_per_partition * self.bitlines_per_tile
                * self.wordlines_per_tile)
        if bits % (8 * self.row_bytes) or bits < 8 * self.row_bytes:
            raise ValueError(
                f"a partition of {bits} bits must hold a whole, non-zero "
                f"number of {self.row_bytes}-byte rows")

    @functools.cached_property
    def partition_bytes(self) -> int:
        """Capacity of one partition."""
        bits = (self.tiles_per_partition * self.bitlines_per_tile
                * self.wordlines_per_tile)
        return bits // 8

    @functools.cached_property
    def rows_per_partition(self) -> int:
        """Number of 32-byte rows in one partition."""
        return self.partition_bytes // self.row_bytes

    @functools.cached_property
    def module_bytes(self) -> int:
        """Capacity of one module (one bank)."""
        return self.partition_bytes * self.partitions_per_bank

    @functools.cached_property
    def channel_bytes(self) -> int:
        """Capacity of one channel."""
        return self.module_bytes * self.modules_per_channel

    @functools.cached_property
    def total_bytes(self) -> int:
        """Capacity of the whole subsystem."""
        return self.channel_bytes * self.channels

    @functools.cached_property
    def words_per_row(self) -> int:
        """Program units per row."""
        return self.row_bytes // self.word_bytes

    @functools.cached_property
    def row_address_bits(self) -> int:
        """Bits needed to address a row within a partition."""
        return max(1, (self.rows_per_partition - 1).bit_length())

    @functools.cached_property
    def upper_row_bits(self) -> int:
        """Row bits carried via a RAB during the pre-active phase."""
        return max(0, self.row_address_bits - self.lower_row_bits)
