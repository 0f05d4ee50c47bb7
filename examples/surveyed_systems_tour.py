#!/usr/bin/env python3
"""A tour of the DOSNs the paper surveys, each doing its signature trick.

Seven named systems, seven defining mechanisms:

* PeerSoN    — message a friend you are never online with;
* Safebook   — fetch a profile whose owner is offline, anonymously;
* Cachet     — hot content served from friends' caches, policy intact;
* Supernova  — storekeepers picked by tracked uptime hold your data;
* Diaspora   — post to an 'aspect'; removal rotates the key;
* Cuckoo     — popular posts pushed to followers, the rest pulled;
* Prpl       — a per-user butler federates that user's devices.

Run:  python examples/surveyed_systems_tour.py
"""

from repro.systems import (CachetNetwork, CuckooNetwork, DiasporaNetwork,
                           PeersonNetwork, PrplNetwork, SafebookNetwork,
                           SupernovaNetwork)
from repro.workloads import social_graph


def peerson() -> None:
    print("== PeerSoN: asynchronous messaging over the DHT ==")
    net = PeersonNetwork(seed=1)
    for i in range(24):
        net.register(f"p{i}")
    net.befriend("p0", "p1")
    net.go_offline("p1")                       # bob's phone is asleep
    net.send_async("p0", "p1", b"call me when you land")
    net.go_offline("p0")                       # alice goes dark too
    net.go_online("p1")
    inbox = net.fetch_mailbox("p1")
    print(f"  p1 wakes up and finds: {inbox[0].decode()!r}")
    print("  (the two peers were never online simultaneously)\n")


def safebook() -> None:
    print("== Safebook: anonymous retrieval from friend mirrors ==")
    graph = social_graph(120, kind="ba", seed=2)
    net = SafebookNetwork(graph, seed=3)
    mirrors = net.publish_profile("user10", b"user10's profile")
    net.online["user10"] = False               # the owner logs off
    friend = str(next(iter(graph.neighbors("user10"))))
    profile, request, mirror = net.retrieve_profile(friend, "user10")
    print(f"  profile mirrored to {mirrors} friends; owner offline")
    print(f"  {friend} fetched it via {request.hops} ring hops, served "
          f"by mirror {mirror!r}")
    up = net.availability("user10", offline_probability=0.5)
    print(f"  with every peer up half the time, owner or a mirror serves "
          f"the profile {up:.0%} of the time")
    print("  the owner never learns who asked.\n")


def cachet() -> None:
    print("== Cachet: social caches + ABE policies + comment keys ==")
    graph = social_graph(60, kind="ws", seed=4)
    net = CachetNetwork(graph, seed=5)
    net.grant("user0", "user1", ["friends"])
    net.post("user0", "post1", "hot take", "friends",
             commenters=["user1"])
    first = net.read("user1", "user0", "post1")[1]
    second = net.read("user1", "user0", "post1")[1]
    print(f"  first read: {first.source} ({first.rpcs} rpcs); "
          f"second read: {second.source} ({second.rpcs} rpcs)")
    net.comment("user1", "post1", "agreed!")
    print(f"  verified comments: {net.verified_comments('post1')}\n")


def supernova() -> None:
    print("== Supernova: uptime-tracked storekeepers ==")
    net = SupernovaNetwork(seed=6)
    for i in range(30):
        net.register(f"n{i}")
    net.report_uptimes({f"n{i}": (0.2 if i < 25 else 0.97)
                        for i in range(30)})
    keepers = net.arrange_storekeepers("n0")
    net.store("n0", "album", b"holiday photos")
    net.overlay.peers["n0"].online = False     # owner disappears
    net.share_key("n0", "n5")                  # out of band, to a friend
    data = net.retrieve("n5", "n0", "album")
    print(f"  super-peers recommended keepers {keepers} "
          "(the high-uptime nodes)")
    print(f"  owner offline, data still served: {data.decode()!r}\n")


def diaspora() -> None:
    print("== Diaspora: pods + aspects + key rotation ==")
    net = DiasporaNetwork(seed=7)
    for i in range(12):
        net.register(f"d{i}")
    net.create_aspect("d0", "family", ["d1", "d2"])
    net.add_to_aspect("d0", "family", "d3")
    net.post("d0", "family", "family-only news")
    print(f"  d3, added to the aspect, reads it: "
          f"{net.read('d3', net.post('d0', 'family', 'welcome d3'))!r}")
    net.remove_from_aspect("d0", "family", "d2")
    new = net.post("d0", "family", "d2 is out of the loop")
    print(f"  d1 reads the new post: {net.read('d1', new)!r}")
    try:
        net.read("d2", new)
    except Exception as exc:
        print(f"  d2 (removed) -> {type(exc).__name__}")
    print(f"  worst pod stores {net.worst_pod_content_fraction():.0%} of "
          "all ciphertexts; no pod reads any of them.")
    users_seen = max(len(view["users"]) for view in net.pod_views().values())
    print(f"  the busiest pod hosts {users_seen} of 12 accounts.\n")


def cuckoo() -> None:
    print("== Cuckoo: push to followers, pull from the DHT ==")
    net = CuckooNetwork(seed=8)
    for i in range(24):
        net.register(f"c{i}")
    for i in range(1, 9):
        net.follow(f"c{i}", "c0")
    net.go_offline("c8")                       # misses the push
    post = net.post("c0", b"breaking news")
    net.go_online("c8")
    for reader in ("c1", "c8"):
        _, path = net.read(reader, post)
        print(f"  {reader} reads the post via {path}")
    print(f"  push share of deliveries: {net.push_hit_rate():.0%}\n")


def prpl() -> None:
    print("== Prpl: a butler finds your data on whichever device holds it ==")
    net = PrplNetwork(seed=9)
    for i in range(16):
        net.register(f"u{i}")
    device = net.store("u0", "notes", b"trip notes")
    content, hops = net.fetch("u5", "u0", "notes")
    print(f"  u5 fetches u0's notes from {device} in {hops} hops: "
          f"{content.decode()!r}")
    net.device_offline(device)
    try:
        net.fetch("u5", "u0", "notes")
    except Exception as exc:
        print(f"  {device} runs out of battery -> {type(exc).__name__}")
    net.butler_offline("u0")
    try:
        net.fetch("u5", "u0", "notes")
    except Exception as exc:
        print(f"  u0's butler stops -> {type(exc).__name__}: nothing of u0 "
              "is findable")


if __name__ == "__main__":
    peerson()
    safebook()
    cachet()
    supernova()
    diaspora()
    cuckoo()
    prpl()
