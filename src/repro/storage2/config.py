"""Quorum/repair parameters for the replicated store."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from repro.exceptions import SimulationError


@dataclass(frozen=True)
class ReplicationConfig:
    """``N``/``R``/``W`` quorum sizing plus the repair cadence.

    ``n`` replicas hold every key; a write needs ``w`` acks, a read needs
    ``r`` verified responses.  ``w + r > n`` gives the classic overlap
    guarantee *against crash faults*; Byzantine holders are handled by
    per-response verification (a lying holder can replay a stale signed
    version but cannot forge a new one), and the remaining stale window is
    closed by read-repair plus the anti-entropy daemon when
    ``repair_interval`` is set (virtual seconds; ``None`` disables the
    daemon).

    ``degraded_reads`` opts into graceful degradation: when fewer than
    ``r`` verified responses are reachable but at least one is, the read
    returns the newest *verified* copy flagged ``degraded=True`` instead
    of raising — never unverified bytes, but possibly stale ones (the
    freshness guarantee needs the quorum overlap).  Readers that cannot
    tolerate staleness must check the flag.
    """

    n: int = 3
    r: int = 2
    w: int = 2
    repair_interval: Optional[float] = None
    degraded_reads: bool = False

    def __post_init__(self) -> None:
        if self.n < 1:
            raise SimulationError("replication target n must be >= 1")
        if not 1 <= self.r <= self.n:
            raise SimulationError("read quorum r must satisfy 1 <= r <= n")
        if not 1 <= self.w <= self.n:
            raise SimulationError("write quorum w must satisfy 1 <= w <= n")
        if self.w + self.r <= self.n:
            raise SimulationError(
                "need w + r > n for read/write quorum overlap")
        if self.repair_interval is not None and (
                not math.isfinite(self.repair_interval)
                or self.repair_interval <= 0):
            raise SimulationError(
                "repair interval must be positive and finite")
