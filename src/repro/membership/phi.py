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
``threshold`` (:meth:`PhiTable.silence_bound`).
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
#: doubles a peer takes in a table: its last evidence, then a gap ring
STRIDE = 1 + WINDOW
#: gaps a window holds before its mean replaces the prior
_PRIOR_GAPS = 3
#: a silence this fraction of a bound is short of it after float rounding
_ROUNDING_MARGIN = 1.0 - 1e-9


def _room(slots: int) -> int:
    """Room a table of ``slots`` peers reserves (< 1/16 spare), on one
    schedule: a cluster's tables grow together, reusing freed blocks."""
    spare = (1 << max(0, slots.bit_length() - 5)) - 1
    return (slots + spare) & ~spare


class PhiTable:
    """One observer's evidence-gap trackers packed by peer rank: a pair
    of the n² table (docs/membership.md "Cost") is ``STRIDE`` doubles,
    its gap count and its ring's oldest slot, and no object of its own."""

    def __init__(self, slots: int, now: float) -> None:
        self.windows = array("d", bytes(8 * STRIDE * _room(slots)))
        self.counts = bytearray(slots)
        self.heads = bytearray(slots)
        self.restart(now)

    def add_slot(self, now: float) -> None:
        rank = len(self.counts)
        if rank * STRIDE == len(self.windows):
            self.windows = self.windows + array(
                "d", bytes(8 * STRIDE * (_room(rank + 1) - rank)))
        self.windows[rank * STRIDE] = now
        self.counts.append(0)
        self.heads.append(0)

    def last_evidence(self, rank: int) -> float:
        return self.windows[rank * STRIDE]

    def evidence(self, rank: int, at: float) -> bool:
        """Record evidence of peer ``rank`` seen at ``at``; whether it
        advanced the clock (stale or duplicate news is ignored)."""
        windows = self.windows
        base = rank * STRIDE
        last = windows[base]
        if at <= last:
            return False
        slot = self.counts[rank]
        if slot < WINDOW:
            self.counts[rank] = slot + 1
        else:   # full: the newest gap overwrites the oldest
            slot = self.heads[rank]
            self.heads[rank] = (slot + 1) % WINDOW
        windows[base + 1 + slot] = at - last
        windows[base] = at
        return True

    def restart(self, now: float) -> None:
        """Reset every silence clock without recording a gap: the
        observer's own absence is no evidence against its peers."""
        self.windows[::STRIDE] = array("d", (now,)) * (
            len(self.windows) // STRIDE)

    def gaps(self, rank: int) -> array:
        """A copy of peer ``rank``'s window, oldest gap first."""
        start = rank * STRIDE + 1
        oldest = start + self.heads[rank]
        windows = self.windows
        return windows[oldest:start + self.counts[rank]] + windows[start:oldest]

    def mean_gap(self, rank: int) -> float:
        """Current estimate of peer ``rank``'s mean evidence gap (floored)."""
        count = self.counts[rank]
        if count < _PRIOR_GAPS:
            return INITIAL_INTERVAL
        # one sum over the window, oldest gap first, as when it slid
        return max(sum(self.gaps(rank)) / count, MIN_INTERVAL)

    def phi(self, rank: int, now: float) -> float:
        """Peer ``rank``'s suspicion at ``now`` (0 at fresh evidence)."""
        elapsed = now - self.windows[rank * STRIDE]
        if elapsed <= 0:
            return 0.0
        return elapsed / (self.mean_gap(rank) * LN10)

    def may_reach(self, rank: int, now: float, threshold: float) -> bool:
        """False when peer ``rank``'s silence at ``now`` is short of the
        least :meth:`silence_bound` its window permits for ``threshold``
        (the floored mean gap's, or the prior's while the window holds
        fewer than three gaps) by more than float rounding: its phi is
        then below ``threshold``, and the window is not read."""
        least = (INITIAL_INTERVAL if self.counts[rank] < _PRIOR_GAPS
                 else MIN_INTERVAL)
        return (now - self.windows[rank * STRIDE]
                >= threshold * least * LN10 * _ROUNDING_MARGIN)

    def silence_bound(self, rank: int, threshold: float) -> float:
        """Silence at which peer ``rank``'s phi reaches ``threshold``."""
        return threshold * self.mean_gap(rank) * LN10
