"""Kademlia DHT — the second structured overlay (XOR metric, k-buckets).

Included alongside Chord because several surveyed DOSNs (Cachet's FreePastry
substrate, PeerSoN's OpenDHT) use prefix/XOR-routing DHTs rather than ring
DHTs; experiment E5 shows both resolve lookups in O(log n) steps, which is
the survey's actual claim ("queries will be resolved in a limited number of
steps"), with different constants.

Implemented: 64-bit XOR identifier space, k-buckets with least-recently-seen
ordering, iterative ``ALPHA``-parallel node lookup, and STORE/FIND_VALUE on
the ``K`` closest nodes.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import lru_cache, partial
from typing import Any, Dict, Iterable, List, Optional, Set, Tuple

from repro.exceptions import (DeadlineExceededError, LookupError_,
                              StorageError)
from repro.overlay.network import SimNode

ID_BITS = 64
#: bucket size, and how many closest nodes a lookup returns and a key is
#: stored on
K = 8
#: lookup parallelism: queries sent per round
ALPHA = 3


# Bounded: every node hashes each peer name it learns, and each lookup
# hashes the names it ranks once (``XorDistances``), so node names stay
# hot; content keys pass through once and must not accumulate.
@lru_cache(maxsize=1 << 13)
def kad_id(name: str) -> int:
    """Hash a name/key onto the XOR identifier space."""
    return int.from_bytes(
        hashlib.sha256(b"repro/kad/" + name.encode()).digest()[:8], "big")


def xor_distance(a: int, b: int) -> int:
    """The Kademlia metric."""
    return a ^ b


class XorDistances(dict):
    """Each name's XOR distance to one target, the name hashed on first ask.

    One lookup keeps one map, so a name every queried peer ranks is hashed
    once, not once per sort; ``map.__getitem__`` is the sort key.
    """

    __slots__ = ("target_id",)

    def __init__(self, target_id: int) -> None:
        super().__init__()
        self.target_id = target_id

    def __missing__(self, name: str) -> int:
        distance = self[name] = kad_id(name) ^ self.target_id
        return distance


@dataclass
class KadLookupResult:
    """Outcome of one iterative lookup."""

    closest: List[str]
    hops: int            # number of query rounds
    rpcs: int            # total FIND_NODE RPCs issued
    value: Optional[bytes] = None


class KademliaNode(SimNode):
    """One Kademlia peer: k-buckets plus a local store."""

    def __init__(self, name: str) -> None:
        super().__init__(name)
        self.kad_id = kad_id(name)
        #: bucket index -> node names, least-recently-seen first; a
        #: bucket exists once a peer has landed in it (most of the
        #: ``ID_BITS`` never do)
        self.buckets: Dict[int, List[str]] = {}
        self.store: Dict[str, bytes] = {}

    def observe(self, other: str) -> None:
        """Record contact with a peer (move-to-tail, bounded bucket)."""
        self.observe_all(((kad_id(other), other),))

    def observe_all(self, peers: Iterable[Tuple[int, str]]) -> None:
        """Record contact with each ``(id, name)`` peer in turn: the one
        insert rule.  A peer's bucket is the length of the prefix it shares
        with this node; a known peer moves to its bucket's tail, a new one
        joins a bucket with room, and a full bucket drops the newcomer
        (classic Kademlia favours long-lived contacts)."""
        own, buckets = self.kad_id, self.buckets
        for other_id, other in peers:
            index = (own ^ other_id).bit_length() - 1
            if index < 0:
                continue  # a node never buckets itself
            bucket = buckets.setdefault(index, [])
            if other in bucket:
                bucket.remove(other)
                bucket.append(other)
            elif len(bucket) < K:
                bucket.append(other)

    def closest_known(self, distances: XorDistances,
                      count: int) -> List[str]:
        """The ``count`` known peers closest to ``distances.target_id``.

        Walks outward from the target's bucket, sorting only the buckets
        it needs.  With ``top`` that bucket's index: its own peers are
        nearest (distance below ``2**top``); every lower bucket's peers
        lie in ``[2**top, 2**(top+1))``, so they sort together; a bucket
        ``i > top`` holds distances in ``[2**i, 2**(i+1))``, so higher
        buckets follow in ascending order until ``count`` peers are found.
        Ids are distinct, so this is the full sort's prefix exactly.
        """
        buckets = self.buckets
        rank = distances.__getitem__
        top = (self.kad_id ^ distances.target_id).bit_length() - 1
        found = sorted(buckets[top], key=rank) if top in buckets else []
        if len(found) < count:
            found += sorted([name for index, bucket in buckets.items()
                             if index < top for name in bucket], key=rank)
            for index in range(top + 1, ID_BITS):
                if len(found) >= count:
                    break
                if index in buckets:
                    found += sorted(buckets[index], key=rank)
        return found[:count]


class KademliaOverlay:
    """A Kademlia overlay over a :class:`repro.fabric.Fabric` (as
    :class:`~repro.overlay.chord.ChordRing`: geometry here, RPCs and
    per-operation decisions through the fabric).  The shortlist already
    routes around unresponsive peers, so a resilient fabric's retries
    alone recover most transient-loss failures.
    """

    def __init__(self, fabric: Any) -> None:
        from repro.fabric import coerce_fabric  # avoids an import cycle
        self.fabric = coerce_fabric(fabric, "KademliaOverlay")
        self.network = self.fabric.network
        self.nodes: Dict[str, KademliaNode] = {}
        # the lookup driver, chosen once (as in ChordRing)
        self._lookup = lambda start, key, find_value: self._iterate(
            self.fabric.op(start), key, find_value)
        adversary = self.fabric.adversary
        if adversary is not None and adversary.config.defense is not None:
            from repro.adversary.defense import defended_kad_lookup
            self._lookup = partial(defended_kad_lookup, self)

    def add_node(self, name: str) -> KademliaNode:
        """Register a peer."""
        node = KademliaNode(name)
        self.nodes[name] = node
        self.network.register(node)
        self.fabric.enroll(name, "kad")
        return node

    def bootstrap(self) -> None:
        """Populate every node's buckets from the global membership.

        Equivalent to each node having completed its join lookups; gives the
        steady-state routing tables the lookup experiments assume.
        """
        peers = [(kad_id(name), name) for name in self.nodes]
        for node in self.nodes.values():
            node.observe_all(peers)

    # -- iterative lookup ---------------------------------------------------------

    def lookup(self, start: str, key: str,
               find_value: bool = False) -> KadLookupResult:
        """Iterative FIND_NODE / FIND_VALUE from ``start`` toward ``key``.

        ``ALPHA`` concurrent queries per round (charged as RPCs); terminates
        when a round fails to improve the closest-seen distance, like the
        original protocol.

        Latency model: rounds are dependent (each consumes the previous
        round's answers) and always sum; *within* a round the ALPHA
        queries are the protocol's namesake concurrency, so each round
        is a parallel span and its queries roll up as max.  The time
        budget is charged the same way: a round costs its slowest query.

        As in :meth:`ChordRing.lookup <repro.overlay.chord.ChordRing
        .lookup>`, the :class:`~repro.fabric.OpContext` checks the time
        budget before every FIND RPC, skips peers the start's membership
        view has confirmed dead, and lets an adversary forge or withhold
        compromised responders' answers; with a defense configured
        :func:`~repro.adversary.defense.defended_kad_lookup` votes over
        disjoint :meth:`_iterate` paths instead.
        """
        return self._lookup(start, key, find_value)

    def _iterate(self, ctx: Any, key: str,
                 find_value: bool = False) -> KadLookupResult:
        """One iterative lookup path from ``ctx.origin`` toward ``key``."""
        start = ctx.origin
        #: every name's true distance, hashed once per lookup: what the
        #: queried peers rank their buckets by
        true = XorDistances(kad_id(key))
        target_id = true.target_id
        origin = self.nodes.get(start)
        if origin is None or not origin.online:
            raise LookupError_(f"start node {start!r} is not online")
        shortlist = origin.closest_known(true, K)
        if not shortlist:
            raise LookupError_("empty routing table; bootstrap first")
        #: the distance this client ranks each name it has learned by.  A
        #: self-reported id a bare client has no way to verify overwrites
        #: the true one — real Kademlia nodes learn peer ids from routing
        #: responses, so a forged (chosen) id ranks wherever the forger
        #: placed it, and a name keeps its claim if it is dropped from the
        #: shortlist and learned again.  With certification the forged
        #: answers never get this far, and an honest claim's certified id
        #: equals the true position, so (as with no adversary) every entry
        #: is the true distance.
        dist: Dict[str, int] = {name: true[name] for name in shortlist}
        distance = dist.__getitem__

        # Peers the start's membership view has confirmed dead are
        # skipped without paying for the probe (as are a defended path's
        # distrusted ones); XOR distance still orders the rest.
        skip = ctx.avoid | ctx.distrust if ctx.distrust else ctx.avoid
        with self.network.tracer.span("kad.lookup", key=key,
                                      start=start) as span:
            queried: Set[str] = set()
            hops = 0
            rpcs = 0
            best = min(map(distance, shortlist))
            while True:
                candidates = [n for n in shortlist
                              if n not in queried and n not in skip]
                candidates.sort(key=distance)
                batch = candidates[:ALPHA]
                if not batch:
                    break
                hops += 1
                improved = False
                # A round's queries launch together, each with the budget
                # left at the round's start; the round costs its slowest.
                round_start = round_end = ctx.spent
                with self.network.tracer.span("kad.round", parallel=True,
                                              round=hops):
                    for peer_name in batch:
                        ctx.spent = round_start
                        if ctx.expired("kad_find"):
                            raise DeadlineExceededError(
                                f"kad lookup for {key!r} ran out of budget "
                                f"after {rpcs} RPCs ({ctx.spent:.3f}s spent)")
                        queried.add(peer_name)
                        ctx.visit(peer_name)
                        ok = ctx.call(start, peer_name, "kad_find").ok
                        round_end = max(round_end, ctx.spent)
                        rpcs += 1
                        if not ok:
                            continue
                        try:
                            forged = None if peer_name == start \
                                else ctx.answer("kad", peer_name, key)
                        except LookupError_:
                            continue  # withheld or provably forged
                        peer = self.nodes[peer_name]
                        if forged is not None:
                            learned_names = []
                            for n, cid in forged.claims:
                                learned_names.append(n)
                                if cid ^ target_id != true[n]:
                                    dist[n] = cid ^ target_id
                        elif find_value and key in peer.store:
                            span.set_attr("rounds", hops)
                            span.set_attr("rpcs", rpcs)
                            span.set_attr("hit", True)
                            return KadLookupResult(
                                closest=sorted(shortlist,
                                               key=distance)[:K],
                                hops=hops, rpcs=rpcs,
                                value=peer.store[key])
                        else:
                            learned_names = peer.closest_known(true,
                                                               K)
                        for learned in learned_names:
                            if learned not in shortlist:
                                shortlist.append(learned)
                                d = dist.setdefault(learned, true[learned])
                                if d < best:
                                    best = d
                                    improved = True
                ctx.spent = round_end
                shortlist.sort(key=distance)
                shortlist = shortlist[:K * 2]
                if not improved and all(n in queried
                                        for n in shortlist[:K]):
                    break
            span.set_attr("rounds", hops)
            span.set_attr("rpcs", rpcs)
            return KadLookupResult(
                closest=shortlist[:K], hops=hops, rpcs=rpcs)

    # -- storage --------------------------------------------------------------------

    def put(self, start: str, key: str, value: bytes) -> KadLookupResult:
        """Store on those of the ``K`` closest nodes whose ``kad_store``
        reply is ``ok``."""
        with self.network.tracer.span("kad.put", key=key, start=start):
            result = self.lookup(start, key)
            stored = 0
            for name in result.closest:
                if self.fabric.call(start, name, "kad_store").ok:
                    self.nodes[name].store[key] = value
                    stored += 1
            if stored == 0:
                raise StorageError(f"no live node accepted key {key!r}")
            return result

    def get(self, start: str, key: str) -> Tuple[bytes, KadLookupResult]:
        """FIND_VALUE; raises :class:`StorageError` when nothing holds it."""
        with self.network.tracer.span("kad.get", key=key, start=start):
            result = self.lookup(start, key, find_value=True)
            if result.value is None:
                raise StorageError(f"key {key!r} not found in the overlay")
            return result.value, result
