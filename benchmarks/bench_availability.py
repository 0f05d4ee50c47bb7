"""Experiment E6 — availability under churn vs replication policy.

Paper claims reproduced (Sections I-II):

* "Users, their friends, or other peers need to be online for better
  availability" — availability grows with replication factor;
* Supernova's "tracking of users up-time to find the best places for
  replication" beats random placement;
* friend replication suffers when friends share diurnal phase (same
  timezone) — correlated downtime, the structural weakness of
  friend-based storage;
* and the paper's security thesis: every extra plaintext replica is
  another "small provider" (exposure column).
"""

from __future__ import annotations

import random
import statistics

import networkx as nx
import pytest

from _reporting import report_table
from repro.overlay import replication as rep
from repro.overlay.churn import DiurnalChurn, ExponentialOnOff
from repro.workloads import social_graph

PEERS = [f"user{i}" for i in range(128)]
GRAPH = social_graph(128, kind="ba", seed=66)
PROBES = [float(t) for t in range(3600, 600000, 4800)]
OWNERS = [f"user{i}" for i in range(0, 128, 8)]


def availability_for(policy, replicas, churn, rng):
    values = []
    exposure = rep.ReplicaExposure()
    for owner in OWNERS:
        if replicas == 0:
            placement = rep.Placement(owner=owner, replicas=[])
        elif policy == "random":
            placement = rep.place_random(owner, PEERS, replicas, rng)
        elif policy == "friends":
            placement = rep.place_friends(owner, GRAPH, replicas, rng)
        else:
            placement = rep.place_by_uptime(owner, PEERS, replicas,
                                            churn.uptime_fraction)
        values.append(rep.measure_availability(placement, churn, PROBES))
        exposure.record(placement, encrypted=False)
    return (statistics.mean(values),
            exposure.mean_readable_view(len(PEERS)))


def test_availability_vs_replication(benchmark):
    """E6 main table: availability & exposure vs replication factor."""
    churn = ExponentialOnOff(seed=67, spread=6.0)

    def sweep():
        rows = []
        for replicas in (0, 1, 2, 4, 8):
            for policy in ("random", "uptime"):
                rng = random.Random(replicas * 100 + 1)
                availability, exposure = availability_for(
                    policy, replicas, churn, rng)
                rows.append((policy, replicas, availability, exposure))
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    random_curve = [a for p, r, a, e in rows if p == "random"]
    uptime_curve = [a for p, r, a, e in rows if p == "uptime"]
    exposure_curve = [e for p, r, a, e in rows if p == "random"]
    # availability monotone in replication, for both policies
    assert all(x <= y + 0.02 for x, y in zip(random_curve,
                                             random_curve[1:]))
    # uptime-aware placement dominates random at every replication level
    assert all(u >= r - 0.02 for u, r in zip(uptime_curve, random_curve))
    # at r=4, uptime placement is already near-perfect
    assert uptime_curve[3] > 0.99
    # exposure (small-providers effect) also grows with replication
    assert exposure_curve[-1] > exposure_curve[1]
    report_table(
        "E6_availability",
        "E6 — availability and replica exposure vs replication factor",
        ["Policy", "Replicas", "Availability", "Mean replica view"],
        rows,
        note=("Availability needs replicas; uptime-aware placement "
              "(Supernova) dominates random.  The exposure column is the "
              "paper's thesis: each plaintext replica is a small provider."))


def test_friend_replication_correlation_penalty(benchmark):
    """E6b: correlated (same-timezone) churn hurts friend replication."""

    def run():
        rows = []
        for correlation, label in ((0.0, "independent phases"),
                                   (1.0, "fully correlated phases")):
            churn = DiurnalChurn(seed=68, phase_correlation=correlation)
            rng = random.Random(69)
            values = []
            for owner in OWNERS:
                placement = rep.place_friends(owner, GRAPH, 3, rng)
                values.append(rep.measure_availability(placement, churn,
                                                       PROBES))
            analytic = statistics.mean(
                rep.analytic_availability(
                    rep.place_friends(owner, GRAPH, 3, rng), churn)
                for owner in OWNERS)
            rows.append((label, statistics.mean(values), analytic))
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    independent, correlated = rows[0][1], rows[1][1]
    assert correlated < independent
    report_table(
        "E6b_correlation",
        "E6b — friend replication vs timezone correlation (3 replicas)",
        ["Churn model", "Measured availability",
         "Independence prediction"],
        rows,
        note=("When friends share a timezone the replicas sleep together: "
              "measured availability falls below the independence "
              "prediction — the structural cost of friend-based storage."))


def test_single_probe_cost(benchmark):
    """Micro: cost of one availability probe over a 4-replica placement."""
    churn = ExponentialOnOff(seed=70)
    placement = rep.place_random("user0", PEERS, 4, random.Random(71))
    # prime the schedule caches so we measure the query, not generation
    rep.measure_availability(placement, churn, PROBES[:5])
    benchmark(lambda: rep.measure_availability(placement, churn,
                                               PROBES[:50]))
