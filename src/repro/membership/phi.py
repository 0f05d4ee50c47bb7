"""Phi-accrual suspicion: adaptive per-peer timeouts from evidence gaps.

Hayashibara et al.'s accrual failure detector, in the exponential-model
form Cassandra ships: instead of a boolean "is the peer dead after T
seconds?", the detector outputs a *suspicion level*

    phi(now) = -log10 P(gap > now - last_evidence)
             = (now - last_evidence) / (mu * ln 10)

where ``mu`` is the mean gap between pieces of liveness evidence for
that peer, estimated over a sliding window.  Consumers pick the phi
threshold matching their tolerance: routing deprioritizes at a low phi,
death is confirmed at a high one.  Because ``mu`` is learned per peer,
a lossy or slow link stretches every timeout automatically — the
adaptivity E15 measures against fixed breaker thresholds.

The model is invertible, which the property tests exploit: silence of
``threshold * mu * ln(10)`` seconds is exactly where phi crosses
``threshold`` (:meth:`PhiEstimator.silence_bound`).
"""

from __future__ import annotations

import math
from array import array

LN10 = math.log(10.0)

#: sliding-window size of the per-peer evidence-gap estimator
WINDOW = 16
#: prior mean evidence gap (seconds) until the window holds three gaps
INITIAL_INTERVAL = 5.0
#: floor for the estimated mean gap (keeps phi finite on chatty pairs);
#: at most :data:`INITIAL_INTERVAL`, so the prior needs no flooring
MIN_INTERVAL = 0.25


class PhiEstimator:
    """Evidence-gap tracker for one (observer, peer) pair."""

    __slots__ = ("last_evidence", "_gaps")

    def __init__(self, now: float) -> None:
        self.last_evidence = now
        # a sliding window of the last ``WINDOW`` gaps, oldest first, as
        # 8 B a gap and nothing up front: the cluster holds one estimator
        # per (observer, peer) *pair* (docs/membership.md "Cost")
        self._gaps = array("d")

    def evidence(self, at: float) -> bool:
        """Record liveness evidence observed at virtual time ``at``.

        Returns whether the evidence advanced the clock (older or
        duplicate timestamps — stale piggybacked news — are ignored).
        """
        if at <= self.last_evidence:
            return False
        gaps = self._gaps
        if len(gaps) == WINDOW:
            del gaps[0]
        gaps.append(at - self.last_evidence)
        self.last_evidence = at
        return True

    def restart(self, now: float) -> None:
        """Reset the silence clock without recording a gap.

        Used when the *observer* was away: its own absence produced the
        silence, which must not count as evidence against the peer.
        """
        self.last_evidence = now

    @property
    def mean_gap(self) -> float:
        """Current estimate of the mean evidence gap (floored)."""
        if len(self._gaps) < 3:
            return INITIAL_INTERVAL
        return max(sum(self._gaps) / len(self._gaps), MIN_INTERVAL)

    def phi(self, now: float) -> float:
        """Suspicion level at ``now`` (0 when evidence just arrived)."""
        elapsed = now - self.last_evidence
        if elapsed <= 0:
            return 0.0
        return elapsed / (self.mean_gap * LN10)

    def silence_bound(self, threshold: float) -> float:
        """Seconds of silence at which phi reaches ``threshold``."""
        return threshold * self.mean_gap * LN10
