"""Gossip membership & adaptive failure detection (the non-oracle path).

Every availability number in this repo used to lean on an omniscient
churn oracle (``online_at(peer, t)``); no deployed DOSN has one.  This
package replaces it with what PeerSoN/Safebook-class systems actually
run: a SWIM-style probe + gossip membership protocol
(:mod:`repro.membership.swim`) whose suspect->dead confirmation is
driven by a per-peer phi-accrual estimator
(:mod:`repro.membership.phi`), all deterministic on the simulator clock.

Opt in per fabric::

    from repro.membership import SwimMembership

    fab = Fabric.create(seed=7, resilient=True)
    swim = SwimMembership(fab)                       # attaches to fab
    for name in peers:
        swim.register(name)
    swim.start()

or through the facade::

    DosnConfig(architecture="dht", resilient=True,
               membership=MembershipConfig())

:class:`MembershipConfig` is a switch, not a parameter set: nothing in
the repo runs SWIM at a second parameter point, so the protocol's values
are the module constants exported below.

Once attached, the :class:`~repro.faults.ReliableChannel` fast-fails
confirmed-dead destinations and strips retries from suspects, the
Chord/Kademlia/Hybrid overlays and the quorum store order candidates
by health score, and the anti-entropy daemon re-replicates
on *confirmed* deaths instead of polling the oracle.  Experiment E15
(``benchmarks/bench_membership.py``) prices detection latency and false
positives against packet loss, and the availability delta of
health-aware routing under partitions + churn.
"""

from repro.membership.phi import (INITIAL_INTERVAL, LN10, MIN_INTERVAL,
                                  WINDOW, PhiTable)
from repro.membership.swim import (ALIVE, CONFIRM_PHI, DEAD,
                                   GOSSIP_BUDGET_FACTOR, K_INDIRECT,
                                   PIGGYBACK_LIMIT, PROTOCOL_PERIOD,
                                   RECLAIM_EVERY, SUSPECT, SUSPECT_PHI,
                                   ConfirmEvent, MemberView,
                                   MembershipConfig, SwimMembership)

__all__ = [
    "ALIVE", "CONFIRM_PHI", "DEAD", "GOSSIP_BUDGET_FACTOR",
    "INITIAL_INTERVAL", "K_INDIRECT", "LN10", "MIN_INTERVAL",
    "PIGGYBACK_LIMIT", "PROTOCOL_PERIOD", "RECLAIM_EVERY", "SUSPECT",
    "SUSPECT_PHI", "WINDOW", "ConfirmEvent", "MemberView",
    "MembershipConfig", "PhiTable", "SwimMembership",
]
