"""Churn models: when are peers online?

Section I of the paper: "The main obstacle of decentralization is that users
are responsible for their data availability.  Users, their friends, or
other peers need to be online for better availability."  Experiment E6
sweeps replication policies against the session processes defined here.

All models expose the same two-method interface:

* ``online_at(peer, t)``     — deterministic boolean given the model seed;
* ``uptime_fraction(peer)``  — long-run availability of the peer.

Determinism matters: availability is then a pure function of (seed, time),
so experiments are exactly repeatable and the *same* schedule can be
re-queried by the replication layer and by the ground-truth evaluator.
"""

from __future__ import annotations

import hashlib
import math
import random as _random
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.exceptions import SimulationError


def _peer_rng(seed: int, peer: str) -> _random.Random:
    digest = hashlib.sha256(f"repro/churn/{seed}/{peer}".encode()).digest()
    return _random.Random(int.from_bytes(digest[:8], "big"))


@dataclass
class ExponentialOnOff:
    """Alternating exponential on/off sessions (classic P2P churn).

    Each peer draws an independent session schedule from the seed; mean
    session/gap lengths may be heterogeneous via ``spread`` (peers get a
    multiplier log-uniform in ``[1/spread, spread]``).
    """

    mean_online: float = 3600.0
    mean_offline: float = 7200.0
    seed: int = 0
    spread: float = 4.0
    horizon: float = 7 * 24 * 3600.0
    _schedules: Dict[str, List[Tuple[float, float]]] = field(
        default_factory=dict, repr=False)
    _starts: Dict[str, List[float]] = field(default_factory=dict, repr=False)

    def schedule(self, peer: str) -> List[Tuple[float, float]]:
        """The peer's (start, end) online sessions up to the horizon
        (materialized once per peer; the list is shared, do not mutate)."""
        cached = self._schedules.get(peer)
        if cached is not None:
            return cached
        rng = _peer_rng(self.seed, peer)
        factor = math.exp(rng.uniform(-math.log(self.spread),
                                      math.log(self.spread)))
        intervals: List[Tuple[float, float]] = []
        t = rng.expovariate(1.0 / self.mean_offline)
        while t < self.horizon:
            up = rng.expovariate(1.0 / (self.mean_online * factor))
            intervals.append((t, min(t + up, self.horizon)))
            t += up + rng.expovariate(1.0 / self.mean_offline)
        self._schedules[peer] = intervals
        self._starts[peer] = [start for start, _ in intervals]
        return intervals

    def online_at(self, peer: str, t: float) -> bool:
        """Whether the peer's schedule covers time ``t``.

        A bisect over interval start times rather than a linear scan —
        E12 queries schedules inside hot lookup loops, where O(n) per
        probe over week-long schedules adds up.
        """
        if not 0 <= t <= self.horizon:
            raise SimulationError(f"time {t} outside churn horizon")
        intervals = self.schedule(peer)
        i = bisect_right(self._starts[peer], t) - 1
        return i >= 0 and t < intervals[i][1]

    def uptime_fraction(self, peer: str) -> float:
        """Measured online share over the horizon."""
        total = sum(end - start for start, end in self.schedule(peer))
        return total / self.horizon


#: :class:`DiurnalChurn`: mean online probability and its day-night swing
DIURNAL_BASE = 0.40
DIURNAL_AMPLITUDE = 0.35


@dataclass
class DiurnalChurn:
    """Day-night availability: a sinusoidal online probability per hour.

    Peers get a random timezone phase; all share one base availability.
    ``online_at`` thins a per-hour Bernoulli draw deterministically from
    the seed, giving correlated day/night patterns across the population —
    the worst case for friend-based replication (friends share timezones:
    ``phase_correlation`` pulls phases toward a common value).
    """

    seed: int = 0
    phase_correlation: float = 0.0

    def _phase(self, peer: str) -> float:
        rng = _peer_rng(self.seed, peer)
        own = rng.uniform(0, 24)
        return (1 - self.phase_correlation) * own

    def online_probability(self, peer: str, t: float) -> float:
        """P(online) at virtual time ``t`` seconds."""
        hour = (t / 3600.0 + self._phase(peer)) % 24
        level = DIURNAL_BASE + DIURNAL_AMPLITUDE * math.sin(
            2 * math.pi * (hour - 6) / 24)
        return min(0.99, max(0.01, level))

    def online_at(self, peer: str, t: float) -> bool:
        """Deterministic Bernoulli draw per (peer, hour-slot)."""
        slot = int(t // 3600)
        digest = hashlib.sha256(
            f"repro/diurnal/{self.seed}/{peer}/{slot}".encode()).digest()
        u = int.from_bytes(digest[:8], "big") / float(1 << 64)
        return u < self.online_probability(peer, t)

    def uptime_fraction(self, peer: str) -> float:
        """Average of the daily probability curve."""
        return sum(self.online_probability(peer, h * 3600.0)
                   for h in range(24)) / 24.0


def apply_churn_to_network(network, model, t: float) -> int:
    """Flip every registered node's ``online`` flag per the model at ``t``.

    Returns the number of online nodes; used by lookup-under-churn
    experiments to snapshot availability before issuing queries.

    Flips go through :meth:`SimNode.go_online` / :meth:`SimNode.go_offline`
    rather than assigning ``online`` directly, so subclasses that re-sync
    state in those hooks actually see churn transitions.
    """
    online = 0
    for node in network.nodes.values():
        want = model.online_at(node.node_id, t)
        if want and not node.online:
            node.go_online()
        elif not want and node.online:
            node.go_offline()
        online += int(want)
    return online
