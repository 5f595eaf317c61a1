"""Memory request messages between the MCU and the PRAM controller."""

from __future__ import annotations

import dataclasses
import enum
import itertools
import typing

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim import Event

_request_ids = itertools.count()


def reset_request_ids() -> None:
    """Restart request numbering at zero.

    The experiment runners call this at every cell boundary so request
    ids are *cell-local*: a worker process (which may have inherited or
    accumulated counter state) numbers a cell's requests exactly like a
    serial run does.  Profile attribution keys requests by
    ``(scope, req)``, so per-cell restarts never alias.
    """
    global _request_ids
    _request_ids = itertools.count()


class Op(enum.Enum):
    """Operation kinds the controller understands."""

    READ = "read"
    WRITE = "write"


#: Bound once: reading an enum member costs more than a global lookup.
_WRITE = Op.WRITE


class RequestStatus(enum.Enum):
    """Completion status of a request under fault injection.

    Without a fault plan every request completes ``OK``.  With one, the
    controller downgrades monotonically: ECC-corrected reads report
    ``CORRECTED``, detected-uncorrectable reads and partially-lost
    writes report ``DEGRADED``, and requests whose data could not be
    placed at all (retries and spares exhausted, or a device-model
    error) report ``FAILED`` — but still *complete*, so callers degrade
    gracefully instead of crashing the event loop.
    """

    OK = "ok"
    CORRECTED = "corrected"
    DEGRADED = "degraded"
    FAILED = "failed"


#: Severity order used by :meth:`MemoryRequest.degrade` (higher wins).
_SEVERITY = {
    RequestStatus.OK: 0,
    RequestStatus.CORRECTED: 1,
    RequestStatus.DEGRADED: 2,
    RequestStatus.FAILED: 3,
}


@dataclasses.dataclass
class MemoryRequest:
    """One read or write message (Section V-B's simple interface).

    The server's MCU issues requests of up to 512 bytes per channel
    (32 bytes per bank); the controller decomposes them into row-sized
    chunks internally.
    """

    op: Op
    address: int
    size: int
    data: bytes | None = None
    request_id: int = dataclasses.field(
        default_factory=lambda: next(_request_ids))
    submit_time: float = 0.0
    complete_time: float = 0.0
    result: bytes | None = None
    done: "Event" | None = None
    status: RequestStatus = RequestStatus.OK
    error: str | None = None
    #: True when a FAILED outcome is *permanent* — the data cannot be
    #: placed no matter how often the request is replayed (row
    #: unrecoverable with no spare left, device-model errors).  The
    #: service layer's retry path consults this to avoid burning its
    #: retry budget (and device time) on deterministic failures.
    fault_permanent: bool = False

    def __post_init__(self) -> None:
        if self.size < 1:
            raise ValueError(f"request size must be >= 1, got {self.size}")
        if self.address < 0:
            raise ValueError(f"negative address: {self.address}")
        if self.op is _WRITE:
            if self.data is None:
                raise ValueError("WRITE requires a data payload")
            if len(self.data) != self.size:
                raise ValueError(
                    f"payload is {len(self.data)} bytes but size={self.size}"
                )
        elif self.data is not None:
            raise ValueError("READ must not carry a payload")

    def degrade(self, status: RequestStatus,
                error: str | None = None) -> None:
        """Record a fault outcome; severity only ever increases.

        Multiple chunks of one request may report different outcomes
        (one corrected read, one failed write); the request keeps the
        worst and the first error message at that severity.
        """
        if _SEVERITY[status] > _SEVERITY[self.status]:
            self.status = status
            if error is not None:
                self.error = error
        elif error is not None and self.error is None:
            self.error = error

    @property
    def latency(self) -> float:
        """Submit-to-complete latency (valid once completed)."""
        return self.complete_time - self.submit_time

    @property
    def is_write(self) -> bool:
        """Convenience predicate."""
        return self.op is Op.WRITE
