"""Reference implementations: overlay hot paths as first written.

Kademlia.  ``KademliaNode.closest_known`` now walks buckets outward from
the target's bucket, each lookup hashes every name it ranks once
(``XorDistances``), and ``bootstrap`` fills each node's buckets in one
``observe_all`` pass.  What they replaced lives here, verbatim, as the
oracle: a node that sorts every peer it knows for each answer and buckets
peers one ``observe`` at a time, and an overlay whose lookup re-hashes a
name in every sort key.  ``test_kad_oracle.py`` holds the new code equal
to it: the same ``KadLookupResult`` or exception type, network
statistics, RNG state and bucket dicts, insertion order included.

Chord and the network.  ``ChordNode.next_step`` now tests each successor
with one modular distance and scans the distinct finger nodes itself, and
an untraced loss-free ``SimNetwork`` settles with ``_rpc_fair``.  Here are
the ``next_step`` that tested each successor with ``in_interval`` and
handed the finger scan to ``closest_preceding``, and the ``rpc_issue``
that always opens its span around the general ``_rpc_inner``;
``test_chord_oracle.py`` holds the new code equal to them.
"""

from bisect import bisect_left
from typing import AbstractSet, Any, Dict, List, Optional, Set, Tuple

from repro.exceptions import (DeadlineExceededError, LookupError_,
                              OverlayError)
from repro.overlay import kademlia
from repro.overlay.chord import M_BITS, ChordNode, ChordRing, in_interval
from repro.overlay.kademlia import (KademliaNode, KademliaOverlay,
                                    KadLookupResult, kad_id, xor_distance)
from repro.overlay.network import SimNetwork
from repro.overlay.simulator import Reply


class ReferenceNode(KademliaNode):
    """A node that buckets one peer at a time and sorts all it knows."""

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
        elif len(bucket) < kademlia.K:
            bucket.append(other)
        # A full bucket drops the newcomer (classic Kademlia favours
        # long-lived contacts).

    def closest_known(self, target_id: int, count: int) -> List[str]:
        """The ``count`` known peers closest to ``target_id``."""
        known = [name for index in sorted(self.buckets)
                 for name in self.buckets[index]]
        known.sort(key=lambda name: xor_distance(kad_id(name), target_id))
        return known[:count]


class ReferenceOverlay(KademliaOverlay):
    """An overlay of :class:`ReferenceNode` peers with the first lookup."""

    def add_node(self, name: str) -> KademliaNode:
        """Register a peer."""
        node = ReferenceNode(name)
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

    def _iterate(self, ctx: Any, key: str,
                 find_value: bool = False) -> KadLookupResult:
        """One iterative lookup path from ``ctx.origin`` toward ``key``."""
        start = ctx.origin
        target_id = kad_id(key)
        origin = self.nodes.get(start)
        if origin is None or not origin.online:
            raise LookupError_(f"start node {start!r} is not online")
        shortlist = origin.closest_known(target_id, kademlia.K)
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
                batch = candidates[:kademlia.ALPHA]
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
                                               key=distance)[:kademlia.K],
                                hops=hops, rpcs=rpcs,
                                value=peer.store[key])
                        else:
                            learned_names = peer.closest_known(target_id,
                                                               kademlia.K)
                        for learned in learned_names:
                            if learned not in shortlist:
                                shortlist.append(learned)
                                d = distance(learned)
                                if d < best:
                                    best = d
                                    improved = True
                ctx.spent = round_end
                shortlist.sort(key=distance)
                shortlist = shortlist[:kademlia.K * 2]
                if not improved and all(n in queried
                                        for n in shortlist[:kademlia.K]):
                    break
            span.set_attr("rounds", hops)
            span.set_attr("rpcs", rpcs)
            return KadLookupResult(
                closest=shortlist[:kademlia.K], hops=hops, rpcs=rpcs)


_SPACE = 1 << M_BITS


class ReferenceChordNode(ChordNode):
    """A Chord node that routes with ``in_interval`` and a separate
    ``closest_preceding`` scan."""

    def closest_preceding(self, key_id: int, ring: "ChordRing",
                          avoid: AbstractSet[str] = frozenset()
                          ) -> Optional[str]:
        """The best next hop: the closest live finger preceding ``key_id``.

        ``avoid`` lists peers the lookup routes around: written off as
        unresponsive, or distrusted by a secure-lookup driver.
        """
        own_id = self.chord_id
        # ``x in (own, key)`` as one modular distance; key == own leaves
        # the whole ring but ``own`` itself
        bound = (key_id - own_id) % _SPACE or _SPACE
        # a duplicate finger gives its first occurrence's answer, so
        # scanning each distinct peer once is the 32-entry scan
        for node in self.finger_nodes:
            if node.online and 0 < (node.chord_id - own_id) % _SPACE < bound \
                    and node.node_id not in avoid:
                return node.node_id
        nodes = ring.nodes
        for succ in self.successors:
            node = nodes.get(succ)
            if node is not None and node.online \
                    and 0 < (node.chord_id - own_id) % _SPACE < bound \
                    and succ not in avoid:
                return succ
        return None

    def next_step(self, key_id: int, ring: "ChordRing",
                  avoid: AbstractSet[str],
                  distrust: AbstractSet[str] = frozenset(),
                  whole_list: bool = False) -> Tuple[str, bool]:
        """This node's routing answer for ``key_id``: ``(peer, is_owner)``.

        If the nearest live successor (skipping ``avoid``) covers the key
        it is the owner; otherwise the lookup moves to the closest
        preceding finger neither avoided nor ``distrust``-ed, falling
        back to that successor.  ``whole_list`` lets *any* live entry of
        the successor list covering the key name the owner (redundant
        successor verification: one compromised immediate predecessor is
        then not a routing choke point).
        """
        nodes = ring.nodes
        successor = None
        for succ in self.successors:
            node = nodes.get(succ)
            if node is None or not node.online or succ in avoid:
                continue
            if in_interval(key_id, self.chord_id, node.chord_id, True):
                return succ, True
            if successor is None:
                successor = succ
                if not whole_list:
                    break
        if successor is None:
            raise LookupError_(
                f"{self.node_id!r} has no live successor (ring partitioned)")
        if distrust:
            avoid = avoid | distrust
        return self.closest_preceding(key_id, ring, avoid) or successor, False


class ReferenceChordRing(ChordRing):
    """A ring of :class:`ReferenceChordNode` peers."""

    def add_node(self, name: str) -> ChordNode:
        """Register a peer (routing state filled by build/join)."""
        node = ReferenceChordNode(name)
        slot = bisect_left(self._ids, node.chord_id)
        if slot < len(self._ids) and self._ids[slot] == node.chord_id:
            raise OverlayError(
                f"chord id collision for {name!r}; rename the node")
        self.nodes[name] = node
        self._ids.insert(slot, node.chord_id)
        self._names.insert(slot, name)
        self.network.register(node)
        self.fabric.enroll(name, "chord")
        return node


class ReferenceNetwork(SimNetwork):
    """A network whose every RPC opens its ``net.rpc`` span and settles
    on the general path (``_rpc_inner`` checks each latency sample)."""

    def rpc_issue(self, src: str, dst: str, kind: str = "rpc",
                  payload_size: int = 64) -> Reply:
        """Model one request/response round trip; return its Reply."""
        with self.tracer.span("net.rpc", kind=kind, src=src,
                              dst=dst) as span:
            reply = self._rpc_inner(src, dst, kind, payload_size, span)
            span.set_attr("ok", reply.ok)
            span.add_cost(reply.latency)
        return reply
