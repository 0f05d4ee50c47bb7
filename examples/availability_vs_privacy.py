#!/usr/bin/env python3
"""The availability-privacy trade-off, measured (Sections I-II).

"The main obstacle of decentralization is that users are responsible for
their data availability ... replication and caching are proven techniques
to ensure availability.  [But] the replica nodes are indeed another kind of
service provider in a small scale."

This script sweeps replication factors and placement policies under churn
and prints availability next to the resulting observer exposure — then
shows that encryption breaks the trade-off.

Run:  python examples/availability_vs_privacy.py
"""

import random
import statistics

from repro.overlay import replication as rep
from repro.overlay.churn import DiurnalChurn, ExponentialOnOff
from repro.workloads import social_graph

PEERS = [f"user{i}" for i in range(96)]
GRAPH = social_graph(96, kind="ba", seed=31)
PROBES = [float(t) for t in range(3600, 500000, 6000)]
OWNERS = PEERS[::8]


def sweep(policy, churn, replicas, encrypted):
    rng = random.Random(replicas)
    availability = []
    exposure = rep.ReplicaExposure()
    for owner in OWNERS:
        if policy == "random":
            placement = rep.place_random(owner, PEERS, replicas, rng)
        elif policy == "friends":
            placement = rep.place_friends(owner, GRAPH, replicas, rng)
        else:
            placement = rep.place_by_uptime(owner, PEERS, replicas,
                                            churn.uptime_fraction)
        availability.append(rep.measure_availability(placement, churn,
                                                     PROBES))
        exposure.record(placement, encrypted=encrypted)
    return (statistics.mean(availability),
            exposure.max_readable_view(len(PEERS)))


def main() -> None:
    churn = ExponentialOnOff(seed=32, spread=6.0)
    print("availability vs exposure (plaintext replicas), independent churn")
    print(f"{'policy':8s} {'replicas':>8s} {'availability':>13s} "
          f"{'worst replica view':>19s}")
    for policy in ("random", "friends", "uptime"):
        for replicas in (1, 2, 4, 8):
            availability, view = sweep(policy, churn, replicas, False)
            print(f"{policy:8s} {replicas:8d} {availability:13.3f} "
                  f"{view:19.3f}")

    print("\nsame sweep with encrypted replicas (Section III applied):")
    availability, view = sweep("uptime", churn, 8, True)
    print(f"{'uptime':8s} {8:8d} {availability:13.3f} {view:19.3f}"
          "   <- full availability, zero readable exposure")

    print("\nfriend replication under correlated (same-timezone) churn:")
    for correlation in (0.0, 1.0):
        diurnal = DiurnalChurn(seed=33, phase_correlation=correlation)
        availability, _ = sweep("friends", diurnal, 3, True)
        label = "independent" if correlation == 0.0 else "correlated "
        print(f"  {label} phases: availability={availability:.3f}")
    print("-> friends who sleep when you sleep are bad replica hosts, "
          "exactly the caveat behind Supernova's uptime tracking.")


if __name__ == "__main__":
    main()
