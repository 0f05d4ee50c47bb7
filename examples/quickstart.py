#!/usr/bin/env python3
"""Quickstart: a five-user DOSN in thirty lines.

Builds a distributed social network on a simulated Chord DHT, makes
friendships, posts encrypted content, assembles a verified news feed, and
prints what the most-exposed observer in the system could actually see —
the library's core loop in one script.

Run:  python examples/quickstart.py
"""

from repro.dosn import DosnConfig, DosnNetwork


def build(architecture: str, encrypt_content: bool = True):
    """Five users, three friendships, three posts; returns the network and
    alice's post id."""
    net = DosnNetwork(config=DosnConfig(architecture=architecture, seed=7,
                                        encrypt_content=encrypt_content))
    for name in ("alice", "bob", "carol", "dave", "eve"):
        net.add_user(name)
    net.befriend("alice", "bob")
    net.befriend("alice", "carol")
    net.befriend("bob", "carol")

    # Posts are encrypted for the author's friend group, signed, and
    # hash-chained before they reach any storage node.
    cid = net.post("alice", "hello distributed world!", tags=["#first"])
    net.post("bob", "setting up my own replica tonight")
    net.post("carol", "who else is at ICDCS?")
    return net, cid


def main() -> None:
    # A DOSN over a simulated DHT ("dht"); try "central", "federation",
    # or "local" to switch the Section II architecture.
    net, cid = build("dht")

    print("alice's post id:", cid)
    result = net.read("bob", "alice", cid)   # a typed ReadResult
    post = result.post
    print(f"bob reads alice: {post.text!r} (tags={post.tags}, "
          f"served from {result.source})")

    print("\nbob's verified feed:")
    feed = net.feed("bob")
    for item in feed.items:
        print(f"  [{item.author}#{item.post.sequence}] {item.post.text}")
    print("feed clean (all integrity checks passed):", feed.clean)

    # eve is nobody's friend: the ciphertext defeats her, not a list check.
    try:
        net.read("eve", "alice", cid)
    except Exception as exc:
        print(f"\neve tries to read alice's post -> {type(exc).__name__}: "
              f"{exc}")

    print("\nwho observes what (worst single observer):")
    worst = net.worst_observer()
    print(f"  observer={worst.observer!r}  "
          f"readable content={worst.content_view:.0%}  "
          f"metadata={worst.metadata_view:.0%}  "
          f"social graph={worst.graph_view:.0%}")

    # Section I's thesis: one big provider sees more than any small one.
    # Without encryption, the central provider's view dominates (more on
    # every axis) the most-exposed peer of the same network on a DHT.
    peer = build("dht", encrypt_content=False)[0].worst_observer()
    provider = build("central", encrypt_content=False)[0].worst_observer()
    print(f"in plaintext, the central provider's view dominates the "
          f"most-exposed DHT peer's ({peer.observer!r}): "
          f"{provider.dominates(peer)}")


if __name__ == "__main__":
    main()
