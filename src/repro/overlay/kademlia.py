"""Kademlia DHT — the second structured overlay (XOR metric, k-buckets).

Included alongside Chord because several surveyed DOSNs (Cachet's FreePastry
substrate, PeerSoN's OpenDHT) use prefix/XOR-routing DHTs rather than ring
DHTs; experiment E5 shows both resolve lookups in O(log n) steps, which is
the survey's actual claim ("queries will be resolved in a limited number of
steps"), with different constants.

Implemented: 64-bit XOR identifier space, k-buckets with least-recently-seen
ordering, iterative ``alpha``-parallel node lookup, and STORE/FIND_VALUE on
the ``k`` closest nodes.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import lru_cache, partial
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.exceptions import (DeadlineExceededError, LookupError_,
                              OverlayError, StorageError)
from repro.overlay.network import SimNode

ID_BITS = 64


# Bounded: node names are hashed inside every closest-peers sort key and
# stay hot; content keys pass through once and must not accumulate.
@lru_cache(maxsize=1 << 13)
def kad_id(name: str) -> int:
    """Hash a name/key onto the XOR identifier space."""
    return int.from_bytes(
        hashlib.sha256(b"repro/kad/" + name.encode()).digest()[:8], "big")


def xor_distance(a: int, b: int) -> int:
    """The Kademlia metric."""
    return a ^ b


@dataclass
class KadLookupResult:
    """Outcome of one iterative lookup."""

    closest: List[str]
    hops: int            # number of query rounds
    rpcs: int            # total FIND_NODE RPCs issued
    value: Optional[bytes] = None


class KademliaNode(SimNode):
    """One Kademlia peer: k-buckets plus a local store."""

    def __init__(self, name: str, k: int = 8) -> None:
        super().__init__(name)
        self.kad_id = kad_id(name)
        self.k = k
        #: bucket index -> node names, least-recently-seen first; a
        #: bucket exists once a peer has landed in it (most of the
        #: ``ID_BITS`` never do)
        self.buckets: Dict[int, List[str]] = {}
        self.store: Dict[str, bytes] = {}

    def bucket_index(self, other_id: int) -> int:
        """Which bucket an id belongs in (shared-prefix length based)."""
        distance = xor_distance(self.kad_id, other_id)
        if distance == 0:
            raise OverlayError("node cannot bucket itself")
        return distance.bit_length() - 1

    def observe(self, other: str) -> None:
        """Record contact with a peer (move-to-tail, bounded bucket)."""
        other_id = kad_id(other)
        if other_id == self.kad_id:
            return
        bucket = self.buckets.setdefault(self.bucket_index(other_id), [])
        if other in bucket:
            bucket.remove(other)
            bucket.append(other)
        elif len(bucket) < self.k:
            bucket.append(other)
        # A full bucket drops the newcomer (classic Kademlia favours
        # long-lived contacts).

    def closest_known(self, target_id: int, count: int) -> List[str]:
        """The ``count`` known peers closest to ``target_id``."""
        known = [name for index in sorted(self.buckets)
                 for name in self.buckets[index]]
        known.sort(key=lambda name: xor_distance(kad_id(name), target_id))
        return known[:count]


class KademliaOverlay:
    """A Kademlia overlay over a :class:`repro.fabric.Fabric` (as
    :class:`~repro.overlay.chord.ChordRing`: geometry here, RPCs and
    per-operation decisions through the fabric).  The shortlist already
    routes around unresponsive peers, so a resilient fabric's retries
    alone recover most transient-loss failures.
    """

    def __init__(self, fabric: Any, k: int = 8, alpha: int = 3) -> None:
        from repro.fabric import coerce_fabric  # avoids an import cycle
        self.fabric = coerce_fabric(fabric, "KademliaOverlay")
        self.network = self.fabric.network
        self.k = k
        self.alpha = alpha
        self.nodes: Dict[str, KademliaNode] = {}
        #: a resilient :meth:`put` counts only confirmed stores
        self.resilient = self.fabric.resilient
        # the lookup driver, chosen once (as in ChordRing)
        self._lookup = lambda start, key, find_value: self._iterate(
            self.fabric.op(start), key, find_value)
        adversary = self.fabric.adversary
        if adversary is not None and adversary.config.defense is not None:
            from repro.adversary.defense import defended_kad_lookup
            self._lookup = partial(defended_kad_lookup, self)

    def add_node(self, name: str) -> KademliaNode:
        """Register a peer."""
        node = KademliaNode(name, k=self.k)
        self.nodes[name] = node
        self.network.register(node)
        self.fabric.enroll(name, "kad")
        return node

    def bootstrap(self) -> None:
        """Populate every node's buckets from the global membership.

        Equivalent to each node having completed its join lookups; gives the
        steady-state routing tables the lookup experiments assume.
        """
        names = list(self.nodes)
        for node in self.nodes.values():
            for other in names:
                node.observe(other)

    # -- iterative lookup ---------------------------------------------------------

    def lookup(self, start: str, key: str,
               find_value: bool = False) -> KadLookupResult:
        """Iterative FIND_NODE / FIND_VALUE from ``start`` toward ``key``.

        ``alpha`` concurrent queries per round (charged as RPCs); terminates
        when a round fails to improve the closest-seen distance, like the
        original protocol.

        Latency model: rounds are dependent (each consumes the previous
        round's answers) and always sum; *within* a round the alpha
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
        target_id = kad_id(key)
        origin = self.nodes.get(start)
        if origin is None or not origin.online:
            raise LookupError_(f"start node {start!r} is not online")
        shortlist = origin.closest_known(target_id, self.k)
        if not shortlist:
            raise LookupError_("empty routing table; bootstrap first")
        #: self-reported ids a bare client has no way to verify — real
        #: Kademlia nodes learn peer ids from routing responses, so a
        #: forged (chosen) id ranks wherever the forger placed it.  With
        #: certification the forged answers never get this far, and an
        #: honest claim's certified id equals the true position, so the
        #: map stays empty (and with no adversary it always is —
        #: ``eff_id`` then reduces to ``kad_id``, byte-identical).
        claimed_ids: Dict[str, int] = {}

        def distance(name: str) -> int:
            return xor_distance(claimed_ids.get(name) if name in claimed_ids
                                else kad_id(name), target_id)

        # Peers the start's membership view has confirmed dead are
        # skipped without paying for the probe (as are a defended path's
        # distrusted ones); XOR distance still orders the rest.
        skip = ctx.avoid | ctx.distrust if ctx.distrust else ctx.avoid
        with self.network.tracer.span("kad.lookup", key=key,
                                      start=start) as span:
            queried: Set[str] = set()
            hops = 0
            rpcs = 0
            best = min(distance(n) for n in shortlist)
            while True:
                candidates = [n for n in shortlist
                              if n not in queried and n not in skip]
                candidates.sort(key=distance)
                batch = candidates[:self.alpha]
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
                                if cid != kad_id(n):
                                    claimed_ids[n] = cid
                        elif find_value and key in peer.store:
                            span.set_attr("rounds", hops)
                            span.set_attr("rpcs", rpcs)
                            span.set_attr("hit", True)
                            return KadLookupResult(
                                closest=sorted(shortlist,
                                               key=distance)[:self.k],
                                hops=hops, rpcs=rpcs,
                                value=peer.store[key])
                        else:
                            learned_names = peer.closest_known(target_id,
                                                               self.k)
                        for learned in learned_names:
                            if learned not in shortlist:
                                shortlist.append(learned)
                                d = distance(learned)
                                if d < best:
                                    best = d
                                    improved = True
                ctx.spent = round_end
                shortlist.sort(key=distance)
                shortlist = shortlist[:self.k * 2]
                if not improved and all(n in queried
                                        for n in shortlist[:self.k]):
                    break
            span.set_attr("rounds", hops)
            span.set_attr("rpcs", rpcs)
            return KadLookupResult(
                closest=shortlist[:self.k], hops=hops, rpcs=rpcs)

    # -- storage --------------------------------------------------------------------

    def put(self, start: str, key: str, value: bytes) -> KadLookupResult:
        """Store on the k closest live nodes to the key."""
        with self.network.tracer.span("kad.put", key=key, start=start):
            result = self.lookup(start, key)
            stored = 0
            for name in result.closest:
                node = self.nodes[name]
                if not node.online:
                    continue
                ok = self.fabric.call(start, name, "kad_store").ok
                if self.resilient and not ok:
                    continue  # a resilient put only counts confirmed stores
                node.store[key] = value
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
