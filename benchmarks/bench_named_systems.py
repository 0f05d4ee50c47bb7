"""Experiment E11 — the surveyed systems, side by side.

The survey's implicit comparison table, made real: the same
post-and-read workload runs on runnable models of the five named DOSNs
(PeerSoN, Safebook, Cachet, Supernova, Diaspora), and the table reports
each system's defining numbers — read cost, availability source, and what
an outsider/storage host gets to see.
"""

from __future__ import annotations

import random
import statistics

import pytest

from _reporting import report_table
from repro.exceptions import AccessDeniedError, ReproError
from repro.systems import (CachetNetwork, CuckooNetwork, DiasporaNetwork,
                           PeersonNetwork, PrplNetwork, SafebookNetwork,
                           SupernovaNetwork)
from repro.workloads import social_graph


def run_peerson():
    net = PeersonNetwork(seed=21)
    for i in range(48):
        net.register(f"p{i}")
    for i in range(1, 6):
        net.befriend("p0", f"p{i}")
    before = net.network.stats.messages
    key = net.post("p0", "status", b"post")
    for i in range(1, 6):
        assert net.read(f"p{i}", key) == b"post"
    cost = (net.network.stats.messages - before) / 6
    denied = 0
    try:
        net.read("p40", key)
    except AccessDeniedError:
        denied = 1
    return ("PeerSoN", "DHT (Chord)", round(cost, 1),
            "DHT replicas", "outsider blocked" if denied else "LEAK")


def run_safebook():
    graph = social_graph(120, kind="ba", seed=22)
    net = SafebookNetwork(graph, seed=23)
    mirrors = net.publish_profile("user10", b"profile")
    friend = str(next(iter(graph.neighbors("user10"))))
    hops = []
    for _ in range(5):
        _, request, _ = net.retrieve_profile(friend, "user10")
        hops.append(request.hops)
    net.online["user10"] = False
    _, _, _ = net.retrieve_profile(friend, "user10")  # mirrors serve
    import networkx as nx
    distances = nx.single_source_shortest_path_length(graph, "user10")
    stranger = next(str(n) for n, d in distances.items() if d >= 2)
    denied = 0
    try:
        net.retrieve_profile(stranger, "user10")
    except AccessDeniedError:
        denied = 1
    return ("Safebook", "friend rings", round(statistics.mean(hops), 1),
            f"{mirrors} friend mirrors",
            "outsider blocked" if denied else "LEAK")


def run_cachet():
    graph = social_graph(60, kind="ws", seed=24)
    net = CachetNetwork(graph, seed=25)
    net.grant("user0", "user1", ["friends"])
    net.post("user0", "post1", "content", "friends",
             commenters=["user1"])
    costs = []
    for _ in range(4):
        _, result = net.read("user1", "user0", "post1")
        costs.append(result.rpcs)
    denied = 0
    try:
        net.read("user30", "user0", "post1")
    except AccessDeniedError:
        denied = 1
    return ("Cachet", "hybrid DHT+cache", round(statistics.mean(costs), 1),
            "DHT + social caches",
            "outsider blocked" if denied else "LEAK")


def run_supernova():
    net = SupernovaNetwork(seed=26)
    for i in range(40):
        net.register(f"n{i}")
    net.report_uptimes({f"n{i}": (0.3 if i < 30 else 0.95)
                        for i in range(40)})
    net.arrange_storekeepers("n0")
    net.store("n0", "album", b"data")
    before = net.network.stats.messages
    for reader in ("n5", "n6", "n7"):
        net.share_key("n0", reader)
        assert net.retrieve(reader, "n0", "album") == b"data"
    cost = (net.network.stats.messages - before) / 3
    net.overlay.peers["n0"].online = False
    assert net.retrieve("n5", "n0", "album") == b"data"
    denied = 0
    try:
        net.retrieve("n8", "n0", "album")
    except ReproError:
        denied = 1
    return ("Supernova", "super-peer index", round(cost, 1),
            "uptime-picked storekeepers",
            "outsider blocked" if denied else "LEAK")


def run_diaspora():
    net = DiasporaNetwork(seed=27)
    for i in range(40):
        net.register(f"d{i}")
    net.create_aspect("d0", "family", [f"d{i}" for i in range(1, 6)])
    before = net.network.stats.messages
    cid = net.post("d0", "family", "aspect post")
    for i in range(1, 6):
        assert net.read(f"d{i}", cid) == "aspect post"
    cost = (net.network.stats.messages - before) / 6
    denied = 0
    try:
        net.read("d20", cid)
    except ReproError:
        denied = 1
    return ("Diaspora", "pod federation", round(cost, 1),
            "always-on pods",
            "outsider blocked" if denied else "LEAK")


def run_cuckoo():
    net = CuckooNetwork(seed=28)
    for i in range(32):
        net.register(f"c{i}")
    for i in range(1, 6):
        net.follow(f"c{i}", "c0")
    before = net.network.stats.messages
    post_id = net.post("c0", b"post")
    for i in range(1, 6):
        content, _ = net.read(f"c{i}", post_id)
        assert content == b"post"
    cost = (net.network.stats.messages - before) / 6
    # access note: Cuckoo is a *microblogging* (public-post) design; the
    # comparison column reports its model honestly.
    return ("Cuckoo", "push + DHT pull", round(cost, 1),
            "followers' inboxes + DHT", "public microblog")


def run_prpl():
    net = PrplNetwork(seed=29)
    for i in range(32):
        net.register(f"u{i}")
    net.store("u0", "item", b"data")
    before = net.network.stats.messages
    hops_seen = []
    for reader in ("u5", "u6", "u7"):
        content, hops = net.fetch(reader, "u0", "item")
        assert content == b"data"
        hops_seen.append(hops)
    cost = (net.network.stats.messages - before) / 3
    return ("Prpl", "butler ring", round(cost, 1),
            "personal devices via butler", "butler-mediated")


def test_named_systems_comparison(benchmark):
    """E11: one workload, all seven surveyed systems, one table."""

    def run_all():
        return [run_peerson(), run_safebook(), run_cachet(),
                run_supernova(), run_diaspora(), run_cuckoo(), run_prpl()]

    rows = benchmark.pedantic(run_all, rounds=1, iterations=1)
    guarded = [row for row in rows
               if row[0] not in ("Cuckoo", "Prpl")]
    assert all(row[4] == "outsider blocked" for row in guarded)
    report_table(
        "E11_systems", "E11 — the surveyed DOSNs on one workload",
        ["System", "Lookup substrate", "Msgs per read",
         "Availability source", "Access control"],
        rows,
        note=("Every surveyed system, runnable: the survey's qualitative "
              "comparison becomes a reproducible table.  The five "
              "private-content systems block non-audience readers; Cuckoo "
              "models public microblogging and Prpl butler-mediated "
              "personal clouds, per their papers."))
