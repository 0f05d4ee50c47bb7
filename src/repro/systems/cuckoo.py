"""Cuckoo: decentralized socio-aware microblogging (Xu et al.).

As the paper describes it: "The hybrid control overlay of Cuckoo uses
structured lookup for finding rare items, whereas, the unstructured lookup
helps with the fast discovery of popular items" (Section II-B).

Composition: a follower graph drives **push dissemination** (gossip along
social edges — the unstructured side, which is why popular posts arrive
"for free"), while every post is also stored in a Chord DHT so that rare
content and missed posts remain retrievable by **structured pull**.
:meth:`CuckooNetwork.read` implements exactly the Cuckoo decision: check
the local push inbox first, fall back to the DHT.
"""

from __future__ import annotations

import random as _random
from collections import deque
from typing import Dict, List, Optional, Set, Tuple

from repro.exceptions import OverlayError, StorageError
from repro.fabric import Fabric
from repro.overlay.chord import ChordRing
from repro.stack import (ContentItem, LayerSpec, PlacementLayer,
                         ProtectionStack, SystemSpec, register_system)

CUCKOO_SPEC = register_system(SystemSpec(
    name="cuckoo",
    citation="Xu et al.",
    overlay="hybrid: unstructured follower push + structured DHT pull",
    layers=(
        LayerSpec("placement", "follower push + Chord DHT store",
                  detail="breadth-first socio-aware push; the DHT copy "
                         "is the catch-up pull path (Section II-B)"),
    ),
    notes="microblogging: content is public, so the pipeline is "
          "placement-only — no ACL or integrity layer"))


#: replicas the DHT keeps of each post
REPLICATION = 2
#: most co-followers one push relay hands a post on to
PUSH_FANOUT = 8


class CuckooNetwork:
    """A Cuckoo deployment: follower-push + DHT-pull microblogging."""

    def __init__(self, seed: int = 0) -> None:
        self.fabric = Fabric.create(seed=seed)
        self.sim = self.fabric.sim
        self.network = self.fabric.network
        self.ring = ChordRing(self.fabric, replication=REPLICATION)
        self.rng = _random.Random(seed)
        self.followers: Dict[str, Set[str]] = {}
        self.following: Dict[str, Set[str]] = {}
        #: user -> post id -> content, delivered by push
        self.inboxes: Dict[str, Dict[str, bytes]] = {}
        self._sequence = 0
        self._built = False
        self.push_deliveries = 0
        self.pull_fetches = 0
        self.stack = ProtectionStack([
            PlacementLayer(post=self._store_and_push,
                           read=self._inbox_or_pull,
                           spec=CUCKOO_SPEC.layers[0]),
        ], spec=CUCKOO_SPEC, tracer=self.fabric.tracer,
            metrics=self.fabric.metrics)

    # -- membership -----------------------------------------------------------------

    def register(self, name: str) -> None:
        """Join the microblogging overlay."""
        self.ring.add_node(name)
        self.followers[name] = set()
        self.following[name] = set()
        self.inboxes[name] = {}
        self._built = False

    def follow(self, follower: str, publisher: str) -> None:
        """Subscribe: future posts are pushed along the social overlay."""
        if follower not in self.followers or publisher not in self.followers:
            raise OverlayError("both users must be registered")
        self.followers[publisher].add(follower)
        self.following[follower].add(publisher)

    def _ensure_built(self) -> None:
        if not self._built:
            self.ring.build()
            self._built = True

    # -- stack layer hooks -------------------------------------------------------

    def _store_and_push(self, item: ContentItem) -> None:
        author, text = item.author, item.payload
        item.cid = f"cuckoo/{author}/{self._sequence}"
        self._sequence += 1
        self.ring.put(author, item.cid, text)
        # breadth-first push through the follower graph
        visited: Set[str] = {author}
        queue = deque([(author, follower)
                       for follower in sorted(self.followers[author])])
        while queue:
            relay, target = queue.popleft()
            if target in visited:
                continue
            visited.add(target)
            if not self.network.rpc_issue(relay, target, "cuckoo_push").ok:
                continue
            self.inboxes[target][item.cid] = text
            self.push_deliveries += 1
            # socio-aware relay: co-followers of the same publisher
            co_followers = [f for f in sorted(self.followers[author])
                            if f not in visited]
            for next_target in co_followers[:PUSH_FANOUT]:
                queue.append((target, next_target))

    def _inbox_or_pull(self, item: ContentItem) -> None:
        pushed = self.inboxes.get(item.reader, {}).get(item.cid)
        if pushed is not None:
            item.result = (pushed, "push")
            return
        value, _ = self.ring.get(item.reader, item.cid)
        self.inboxes[item.reader][item.cid] = value
        self.pull_fetches += 1
        item.result = (value, "pull")

    # -- publish: push to followers + structured store --------------------------------

    def post(self, author: str, text: bytes) -> str:
        """Publish: DHT store (pull path) + social push to online followers.

        Push propagates breadth-first through the follower set (followers
        relay to co-followers, Cuckoo's socio-aware trick) with a fanout
        bound; offline followers simply miss the push — the DHT copy is
        their catch-up path.
        """
        self._ensure_built()
        item = ContentItem(author=author, payload=text)
        self.stack.post(item)
        return item.cid

    # -- read: unstructured first, structured fallback ----------------------------------

    def read(self, reader: str, post_id: str) -> Tuple[bytes, str]:
        """The Cuckoo split: inbox (push) hit or DHT (pull) fallback."""
        self._ensure_built()
        item = ContentItem(author="", reader=reader, cid=post_id)
        self.stack.read(item)
        return item.result

    def push_hit_rate(self) -> float:
        """Fraction of reads served by the unstructured push path."""
        total = self.push_deliveries + self.pull_fetches
        return self.push_deliveries / total if total else 0.0

    def go_offline(self, name: str) -> None:
        """Take a peer down (misses pushes from now on)."""
        self.ring.nodes[name].online = False

    def go_online(self, name: str) -> None:
        """Bring a peer back (catch-up happens via pull)."""
        self.ring.nodes[name].online = True
