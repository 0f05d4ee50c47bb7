"""Gossip membership & adaptive failure detection (the non-oracle path).

Every availability number in this repo used to lean on an omniscient
churn oracle (``online_at(peer, t)``); no deployed DOSN has one.  This
package replaces it with what PeerSoN/Safebook-class systems actually
run: a SWIM-style probe + gossip membership protocol
(:mod:`repro.membership.swim`) whose suspect->dead confirmation is
driven by a per-peer phi-accrual estimator
(:mod:`repro.membership.phi`), all deterministic on the simulator clock.

Opt in per fabric::

    from repro.membership import MembershipConfig, SwimMembership

    fab = Fabric.create(seed=7, resilient=True)
    swim = SwimMembership(fab, MembershipConfig())   # attaches to fab
    for name in peers:
        swim.register(name)
    swim.start()

or through the facade::

    DosnConfig(architecture="dht", resilient=True,
               membership=MembershipConfig())

Once attached, the :class:`~repro.faults.ReliableChannel` fast-fails
confirmed-dead destinations and strips retries from suspects, the
Chord/Kademlia/Hybrid overlays and the quorum store order candidates
by health score, and the anti-entropy daemon re-replicates
on *confirmed* deaths instead of polling the oracle.  Experiment E15
(``benchmarks/bench_membership.py``) prices detection latency and false
positives against packet loss, and the availability delta of
health-aware routing under partitions + churn.
"""

from repro.membership.config import MembershipConfig
from repro.membership.phi import LN10, PhiEstimator
from repro.membership.swim import (ALIVE, DEAD, SUSPECT, ConfirmEvent,
                                   MemberView, SwimMembership)

__all__ = [
    "ALIVE", "DEAD", "SUSPECT", "ConfirmEvent", "LN10", "MemberView",
    "MembershipConfig", "PhiEstimator", "SwimMembership",
]
