"""Overload protection: service queues, deadlines, retry budgets.

The fair-weather simulator prices only wire latency: a peer absorbs any
number of concurrent RPCs for free, so a hotspot can never *collapse* —
exactly the failure mode real DOSNs die of (replica reads multiply load
on data holders; retry storms keep a recovering peer saturated long
after the original spike has passed).  This module supplies the four
mechanisms that make overload survivable, and the configuration surface
that threads them through the stack:

* :class:`ServiceConfig` — every peer gets a service time and a bounded
  FIFO queue; :meth:`repro.overlay.network.SimNetwork.rpc_issue` charges
  queueing delay on top of wire latency, and a full queue *sheds* the
  request with a typed ``overloaded`` fast-failure (an
  :class:`~repro.exceptions.OverloadedError` at the storage layer).  A
  shed costs one round trip; a timeout costs the full attempt timeout —
  that price gap is what makes load shedding pay.
* :class:`Deadline` — a propagated time budget.  Multi-hop lookups and
  quorum reads subtract elapsed virtual time hop by hop and fail fast
  (:class:`~repro.exceptions.DeadlineExceededError`) instead of issuing
  RPCs whose answers nobody will wait for.
* :class:`RetryBudget` — a token bucket shared per channel.  Retries
  draw tokens; successes refill them; an empty bucket turns a cluster's
  retry storm into single attempts until the system is healthy enough
  to earn the tokens back.
* :class:`AdaptiveTimeout` — per-destination EWMA of observed RTTs with
  a floor and ceiling, replacing the fixed ``4*RTT`` timeout constant,
  so a doomed attempt is abandoned after roughly what a healthy answer
  would have taken.

All of it is strictly opt-in: with :class:`OverloadConfig` unset
(``overload=None`` on :class:`repro.fabric.Fabric` /
:class:`repro.dosn.api.DosnConfig`), no service state exists, no code
path changes, and no RNG draw moves — committed experiment tables
regenerate byte-identically.  Experiment E18
(``benchmarks/bench_overload.py``) drives a hotspot spike that collapses
the unprotected stack metastably and shows this stack restoring goodput
once the spike ends.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.exceptions import SimulationError

__all__ = ["AdaptiveTimeout", "Deadline", "NO_DEADLINE", "OverloadConfig",
           "RetryBudget", "ServiceConfig", "deadline_expired"]

#: tokens a full :class:`RetryBudget` holds, and what one success earns back
RETRY_BUDGET_CAPACITY = 20.0
RETRY_REFILL_PER_SUCCESS = 0.2

#: :class:`AdaptiveTimeout`: EWMA weight of the newest RTT, and the attempt
#: timeout ``clamp(MULTIPLIER * ewma, FLOOR, CEILING)`` in virtual seconds
EWMA_ALPHA = 0.2
TIMEOUT_MULTIPLIER = 3.0
TIMEOUT_FLOOR = 0.25
TIMEOUT_CEILING = 2.0


@dataclass(frozen=True)
class ServiceConfig:
    """One peer's service model: processing rate plus a bounded queue.

    ``service_time`` is the virtual seconds one RPC occupies the peer;
    requests arriving while it is busy queue FIFO behind the backlog.
    ``queue_limit`` bounds the backlog (``None`` = unbounded, the
    collapse-prone baseline E18 measures).  A full queue rejects the
    overflow: an immediate typed rejection rides back to the caller
    (cost: one round trip, no service time billed; the metric keeps its
    ``policy="reject"`` label).

    ``timeout`` is the fixed per-attempt client timeout that applies
    once a service model exists (a queued response slower than this
    reads as a timeout; the server still pays the wasted service time —
    the ingredient of metastable collapse).  :class:`AdaptiveTimeout`
    replaces it with an RTT-tracking estimate.
    """

    service_time: float = 0.02
    queue_limit: Optional[int] = 16
    timeout: float = 1.0

    def __post_init__(self) -> None:
        if not math.isfinite(self.service_time) or self.service_time <= 0:
            raise SimulationError("service_time must be positive and finite")
        if self.queue_limit is not None and self.queue_limit < 1:
            raise SimulationError("queue_limit must be None or >= 1")
        if not math.isfinite(self.timeout) or self.timeout <= 0:
            raise SimulationError("timeout must be positive and finite")


@dataclass(frozen=True)
class OverloadConfig:
    """The overload-protection stack, as one opt-in configuration knob.

    Every field is independently optional so experiments can ablate:
    ``service`` installs the per-peer queue model on the network,
    ``op_budget`` (virtual seconds) mints a :class:`Deadline` per
    logical operation (lookup, quorum read) — ``None`` disables deadline
    propagation — ``retry_budget`` caps channel-wide retry
    amplification with a :class:`RetryBudget`, and ``adaptive_timeout``
    replaces the fixed attempt timeout with the :class:`AdaptiveTimeout`
    estimator.

    ``OverloadConfig(service=ServiceConfig(queue_limit=None),
    op_budget=None, retry_budget=False, adaptive_timeout=False)`` is the
    *bare* service model: queueing is priced but nothing protects
    against it — the configuration E18 collapses.
    """

    service: Optional[ServiceConfig] = field(default_factory=ServiceConfig)
    op_budget: Optional[float] = 2.0
    retry_budget: bool = True
    adaptive_timeout: bool = True

    def __post_init__(self) -> None:
        if self.op_budget is not None and (
                not math.isfinite(self.op_budget) or self.op_budget <= 0):
            raise SimulationError(
                "op_budget must be None or positive and finite")

    def mint_deadline(self, now: float) -> "Deadline":
        """A fresh per-operation deadline (the fabric binds this only
        when ``op_budget`` is set)."""
        return Deadline(now + self.op_budget)


class Deadline:
    """An absolute virtual-time budget propagated through an operation.

    The accounted-RPC shortcut keeps the clock frozen during a logical
    operation, so layers carry their *spent* time explicitly: a lookup
    that has accrued ``spent`` seconds of RTT checks
    ``deadline.remaining(now) <= spent`` before paying for the next hop,
    and hands the callee ``deadline.minus(spent)`` so the sub-call sees
    only what is left.  Expired deadlines fail fast — the doomed RPC is
    never issued, which is the whole point.
    """

    __slots__ = ("expires_at",)

    def __init__(self, expires_at: float) -> None:
        self.expires_at = expires_at

    def remaining(self, now: float) -> float:
        """Budget left at virtual time ``now`` (negative = expired)."""
        return self.expires_at - now

    def expired(self, now: float, spent: float = 0.0) -> bool:
        """Whether ``spent`` seconds of work exhaust the budget."""
        return self.remaining(now) <= spent

    def minus(self, spent: float) -> "Deadline":
        """The deadline as seen after ``spent`` seconds of frozen-clock
        work (hop N+1's view of hop N's budget)."""
        return Deadline(self.expires_at - spent)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Deadline(expires_at={self.expires_at:.4f})"


#: the deadline of every operation when no op budget is installed
NO_DEADLINE = Deadline(math.inf)


def deadline_expired(network, deadline: Deadline, spent: float,
                     kind: str) -> bool:
    """The one deadline check: has ``spent`` exhausted ``deadline``?

    Every layer that propagates a budget (channel attempts and hedges,
    lookup hops, replica and quorum probes) asks here before paying for
    the next RPC, so an expiry is counted the same way wherever it is
    noticed: once, as ``overload.deadline_expired{kind=...}`` (which
    ``NetworkStats.deadline_expired`` sums).  :data:`NO_DEADLINE` never
    expires.
    """
    if not deadline.expired(network.sim.now, spent):
        return False
    network.metrics.inc("overload.deadline_expired", kind=kind)
    return True


class RetryBudget:
    """A token bucket capping cluster-wide retry amplification.

    Shared per :class:`~repro.faults.ReliableChannel` (i.e. per fabric):
    every retry anywhere draws one token, every successful call refills
    :data:`RETRY_REFILL_PER_SUCCESS` up to :data:`RETRY_BUDGET_CAPACITY`.
    Under a load spike the bucket drains and calls degrade to single
    attempts — the retry storm stops feeding the overload — and recovery
    refills it organically, because refills only come from successes.
    """

    __slots__ = ("tokens",)

    def __init__(self) -> None:
        self.tokens = RETRY_BUDGET_CAPACITY

    def try_spend(self) -> bool:
        """Draw one token for a retry; False when the bucket is dry (the
        channel counts each denial as ``overload.budget_exhausted``)."""
        if self.tokens < 1.0:
            return False
        self.tokens -= 1.0
        return True

    def on_success(self) -> None:
        """A call succeeded: earn back part of a token."""
        self.tokens = min(RETRY_BUDGET_CAPACITY,
                          self.tokens + RETRY_REFILL_PER_SUCCESS)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"RetryBudget(tokens={self.tokens:.2f}/"
                f"{RETRY_BUDGET_CAPACITY:.0f})")


class AdaptiveTimeout:
    """Per-destination EWMA attempt timeouts with a floor and ceiling.

    Each observed successful RTT updates the destination's EWMA; an
    attempt timeout is ``clamp(TIMEOUT_MULTIPLIER * ewma, TIMEOUT_FLOOR,
    TIMEOUT_CEILING)``.
    Destinations never observed fall back to the caller-supplied
    default (the fixed :attr:`ServiceConfig.timeout`, or the legacy
    ``4*RTT`` when no service model exists), so the estimator can only
    sharpen the constant, never invent one from nothing.
    """

    __slots__ = ("_ewma",)

    def __init__(self) -> None:
        self._ewma: Dict[str, float] = {}

    def observe(self, dst: str, rtt: float) -> None:
        """Feed one successful round trip to ``dst`` into the estimate."""
        previous = self._ewma.get(dst)
        if previous is None:
            self._ewma[dst] = rtt
        else:
            self._ewma[dst] = (1.0 - EWMA_ALPHA) * previous + EWMA_ALPHA * rtt

    def timeout_for(self, dst: str) -> Optional[float]:
        """The attempt timeout for ``dst`` (``None`` before any sample)."""
        ewma = self._ewma.get(dst)
        if ewma is None:
            return None
        return min(TIMEOUT_CEILING,
                   max(TIMEOUT_FLOOR, TIMEOUT_MULTIPLIER * ewma))
