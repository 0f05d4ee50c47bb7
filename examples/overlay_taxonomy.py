#!/usr/bin/env python3
"""Section II's overlays, one claim each.

Experiment E5 prices structured lookups on a ring built in one step;
Chord's incremental protocol and three other organisations make a
different promise, shown here on small simulated networks:

* structured     — a Chord ring needs no global view: a latecomer joins
                   through any peer, and periodic stabilization alone
                   makes it the owner of its arc;
* unstructured   — "no user in the system stores any index": a flooded
                   query pays per search, a pushed rumour reaches nearly
                   everyone with a fixed fanout;
* federation     — pods split the provider: no single server sees all
                   the content or the whole social graph;
* location trees — Vis-à-Vis shares by region: a member is discoverable
                   exactly at the prefixes they registered, and a dark
                   host is recovered by moving its tree nodes.

Run:  python examples/overlay_taxonomy.py
"""

import random

from repro.exceptions import LookupError_
from repro.fabric import Fabric
from repro.overlay.chord import ChordRing
from repro.overlay.federation import FederatedNetwork
from repro.overlay.gossip import GossipOverlay
from repro.overlay.locationtree import LocationTree
from repro.overlay.network import SimNetwork
from repro.overlay.simulator import FixedLatency, Simulator
from repro.workloads import social_graph


def structured() -> None:
    print("== Structured: a peer joins a Chord ring ==")
    ring = ChordRing(Fabric.create(seed=6))
    for i in range(16):
        ring.add_node(f"peer{i}")
    ring.build()
    ring.join("latecomer", via="peer0")
    ring.stabilize_all(rounds=3)
    keys = [f"key{i}" for i in range(200)]
    owned = [key for key in keys if ring.owner_of(key) == "latecomer"]
    routed = sum(ring.lookup("peer5", key).owner == ring.owner_of(key)
                 for key in keys)
    print(f"  after 3 stabilization rounds {routed}/{len(keys)} lookups "
          f"reach the true owner; the latecomer owns {len(owned)} keys")


def unstructured() -> None:
    print("\n== Unstructured: flooding and push gossip on the social "
          "graph ==")
    net = SimNetwork(Simulator(1), latency=FixedLatency(0.01))
    overlay = GossipOverlay(net, social_graph(200, kind="ba", seed=2))
    overlay.place_key("album", "user150")
    search = overlay.flood_search("user0", "album", ttl=6)
    print(f"  flooded search found the album: {search.found} "
          f"({search.messages} messages, no index kept anywhere)")
    arrivals = overlay.gossip_disseminate("user0", "party-news")
    print(f"  a rumour pushed to 3 neighbours per hop reached "
          f"{overlay.coverage('party-news'):.0%} of 200 peers in "
          f"{max(arrivals.values()):.2f} s")


def federation() -> None:
    print("\n== Federation: many small providers instead of one ==")
    net = SimNetwork(Simulator(3))
    pods = FederatedNetwork(net, [f"pod{i}" for i in range(12)])
    users = [f"u{i}" for i in range(60)]
    for user in users:
        pods.register_user(user)
    rng = random.Random(4)
    edges = 0
    for i in range(120):
        author = rng.choice(users)
        audience = sorted({rng.choice(users) for _ in range(3)} - {author})
        pods.post(author, f"post{i}", b"hello", audience)
        edges += len(audience)
    content, graph = pods.max_view_fraction(120, edges)
    print(f"  the best-informed pod holds {content:.0%} of the posts and "
          f"observes {graph:.0%} of the sharing edges (a central provider: "
          "100% of both)")


def location_tree() -> None:
    print("\n== Vis-a-Vis: a group shared by location ==")
    tree = LocationTree("hiking-club", SimNetwork(Simulator(5)))
    members = {"alice": ("europe", "turkey", "istanbul"),
               "bob": ("europe", "turkey", "ankara"),
               "carol": ("europe", "germany", "berlin"),
               "dave": ("asia", "japan", "tokyo"),
               "erin": ("europe", "turkey")}
    for name, region in members.items():
        tree.add_member(name, region)
    print(f"  erin registered at country level and is discoverable at "
          f"{tree.location_visibility('erin', members['erin'])}")
    turkey = tree.query("dave", ("europe", "turkey"))
    print(f"  members in turkey: {turkey.members} ({turkey.hops} hops)")
    tree.remove_member("bob", members["bob"])
    print(f"  after bob leaves: "
          f"{tree.query('dave', ('europe', 'turkey')).members}")
    tree.servers["alice"].online = False  # hosts the root path
    try:
        tree.query("dave", ("europe",))
    except LookupError_:
        print("  alice's server goes dark: europe is unreachable")
    for prefix in ((), ("europe",), ("europe", "turkey"),
                   ("europe", "turkey", "istanbul")):
        tree.rehost(prefix, "carol")
    print(f"  rehosted on carol's server: "
          f"{tree.query('dave', ('europe',)).members}")


if __name__ == "__main__":
    structured()
    unstructured()
    federation()
    location_tree()
