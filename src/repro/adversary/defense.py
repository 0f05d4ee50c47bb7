"""The secure-lookup defense stack: certification, voting, quarantine.

Three classic defenses against routing-layer adversaries, composed:

* **node-ID certification** (:mod:`repro.crypto.node_cert`) — every
  routing response's id claim is checked against a verified certificate
  binding ``id = H(pubkey)``; chosen IDs and unverifiable pubkeys are
  *provable* lies and the responder is quarantined on the spot;
* **redundant disjoint-path lookups** — :func:`defended_chord_lookup`
  runs :data:`SUCCESSOR_REDUNDANCY` independent Chord paths (each path
  distrusts the peers earlier paths routed through, forcing route
  diversity) and settles the owner by majority vote;
  :func:`defended_kad_lookup` does the same with :data:`DISJOINT_PATHS`
  Kademlia lookups, merging their closest sets.  The paths overlap, so
  the redundancy costs the *max* path latency, exactly like every other
  fan-out in the codebase;
* **quarantine** (:class:`Quarantine`) — provably-lying peers are banned
  from route selection immediately; certified-but-lying peers (true id,
  wrong answer — certification cannot catch them) are banned after
  :data:`SUSPECT_THRESHOLD` lost votes.  Banned peers sort last in the
  one holder ordering (:meth:`repro.fabric.OpContext.order`), and a ban
  feeds the circuit-breaker path (calls to them fast-fail until a
  half-open probe) when a breaker is wired on the fabric.

The overlays' public ``lookup`` entry points hand the operation to these
drivers (chosen once, in the overlays' constructors) whenever the
fabric's adversary model carries a :class:`~repro.adversary.config
.DefenseConfig`, so quorum writes (coordinator routing) and every other
lookup consumer get the defended path with no call-site changes.  Each
disjoint path is the overlay's own single-path routine
(``ChordRing._route`` / ``KademliaOverlay._iterate``) run under a fresh
:class:`~repro.fabric.OpContext` that carries the path's distrust set,
collects its responders and switches certificate checks on.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List, Set

from repro.adversary.config import (DISJOINT_PATHS, SUCCESSOR_REDUNDANCY,
                                    SUSPECT_THRESHOLD)
from repro.exceptions import LookupError_

__all__ = ["Quarantine", "defended_chord_lookup", "defended_kad_lookup"]


class Quarantine:
    """Bans for lying peers, fed into holder ordering and the breaker."""

    def __init__(self, fabric) -> None:
        self.fabric = fabric
        #: peers banned from route selection (never from being resolved
        #: *to* — a quarantined peer can still be a key's true owner)
        self.banned: Set[str] = set()
        #: lost disjoint-path votes per certified-but-lying peer
        self.suspicion: Dict[str, int] = {}
        #: why each banned peer was banned ("cert" / "outvoted")
        self.reasons: Dict[str, str] = {}

    def flag_provable(self, peer: str, reason: str) -> None:
        """A provable lie (failed certificate check): ban immediately."""
        if peer not in self.banned:
            self._ban(peer, reason)

    def flag_suspect(self, peer: str) -> None:
        """A lost majority vote; ban after :data:`SUSPECT_THRESHOLD`
        strikes."""
        if peer in self.banned:
            return
        strikes = self.suspicion.get(peer, 0) + 1
        self.suspicion[peer] = strikes
        if strikes >= SUSPECT_THRESHOLD:
            self._ban(peer, "outvoted")

    def _ban(self, peer: str, reason: str) -> None:
        self.banned.add(peer)
        self.reasons[peer] = reason
        self.fabric.metrics.inc("adversary.quarantined", reason=reason)
        channel = self.fabric.channel
        if channel is not None and channel.breaker is not None:
            channel.breaker.quarantine(peer, self.fabric.sim.now)

    def order_last(self, peers: List[str]) -> List[str]:
        """Stable reorder with banned peers last (read-path helper)."""
        if not self.banned:
            return peers
        return sorted(peers, key=lambda p: p in self.banned)


def _disjoint_paths(fabric, start: str, wanted: int, run_path):
    """Run single-path lookups until ``wanted`` of them succeed.

    At most ``2 * wanted + 1`` attempts; each runs ``run_path(ctx)`` under
    a fresh :class:`~repro.fabric.OpContext` that distrusts the responders
    of every earlier path plus every quarantined peer, so a single
    compromised region cannot answer all of them.  Returns
    ``(results, failed_paths)``; raises when every attempt failed.
    """
    banned = fabric.adversary.quarantine.banned
    used: Set[str] = set()
    results = []
    attempts = 0
    while attempts < 2 * wanted + 1 and len(results) < wanted:
        attempts += 1
        ctx = fabric.op(start, distrust=frozenset(used | banned),
                        visited=set(), certified=True)
        try:
            results.append(run_path(ctx))
        except LookupError_:
            pass
        used.update(ctx.visited)
    if not results:
        raise LookupError_(
            f"defended lookup from {start!r}: all {attempts} disjoint "
            "paths failed")
    return results, attempts - len(results)


def defended_chord_lookup(ring, start: str, key: str, max_hops: int = 64):
    """Redundant Chord lookup: disjoint paths + majority successor vote.

    :data:`SUCCESSOR_REDUNDANCY` disjoint single-path lookups (each
    scanning whole successor lists, so any of the owner's recent
    predecessors can name it) produce one owner claim each; see
    :func:`_disjoint_paths`.  The vote is *successor-verified* first: a
    node's ring position is ``H(pubkey)`` and unforgeable, so no
    certified node can sit between the key and its true owner — any vote
    naming a certifiably looser owner than the tightest claim on the
    table is a lie and is discarded before the majority settles (the
    surviving votes necessarily agree; ties among equal claims break to
    the smallest name).
    Losing resolvers are flagged as suspects (once per lookup each).
    The returned :class:`~repro.overlay.chord.LookupResult` carries the
    winning path's hop count and the slowest voting path's latency.
    """
    from repro.overlay.chord import _SPACE, LookupResult, chord_id

    adv = ring.fabric.adversary
    metrics = ring.network.metrics
    with ring.network.tracer.span("chord.lookup.defended", key=key,
                                  start=start, parallel=True) as span:
        votes, failed_paths = _disjoint_paths(
            ring.fabric, start, SUCCESSOR_REDUNDANCY,
            lambda ctx: ring._route(ctx, key, max_hops, whole_list=True))
        # Successor verification: certified positions are unforgeable,
        # so the owner claim with the smallest clockwise distance from
        # the key is the only one that can be the key's successor —
        # every looser claim is discarded as a lie before the majority
        # settles.
        key_id = chord_id(key)
        tight = min((chord_id(v.owner) - key_id) % _SPACE for v in votes)
        tally = Counter(
            v.owner for v in votes
            if (chord_id(v.owner) - key_id) % _SPACE == tight)
        top = max(tally.values())
        winner = min(name for name, count in tally.items() if count == top)
        if all(vote.owner == winner for vote in votes):
            metrics.inc("lookup.disjoint_agreement", overlay="chord")
        else:
            metrics.inc("lookup.poisoned", overlay="chord",
                        cause="outvoted")
            liars = {vote.resolver for vote in votes
                     if vote.owner != winner and vote.resolver is not None}
            for liar in sorted(liars):
                adv.flag_outvoted(liar, overlay="chord")
        winning = next(vote for vote in votes if vote.owner == winner)
        span.set_attr("paths", len(votes) + failed_paths)
        span.set_attr("agreement", top / len(votes))
        span.set_attr("owner", winner)
        return LookupResult(
            owner=winner, hops=winning.hops,
            rtt=max(vote.rtt for vote in votes),
            failed_probes=failed_paths + sum(v.failed_probes
                                             for v in votes),
            resolver=winning.resolver)


def defended_kad_lookup(overlay, start: str, key: str,
                        find_value: bool = False):
    """:data:`DISJOINT_PATHS` disjoint Kademlia lookups, closest sets merged.

    The paths' closest sets are *unioned*: a learned name is a
    certified-real node at an unforgeable position the client re-sorts
    by true XOR distance, so knowledge only one path surfaced (bounded
    k-buckets make closeness knowledge scarce) is kept, and a forged set
    can only add far-away accomplices that sort last.  Top-candidate
    disagreement between paths is counted
    (``lookup.disjoint_agreement`` / ``lookup.poisoned``).  With
    ``find_value`` the settled set is then
    probed in XOR order for the value, one paid ``kad_fetch`` each, and
    only an ``ok`` reply's holder can serve it (compromised holders
    withhold it; honest ones serve it), so a single honest live holder
    suffices.
    """
    from repro.overlay.kademlia import (K, KadLookupResult, kad_id,
                                        xor_distance)

    fabric = overlay.fabric
    adv = fabric.adversary
    metrics = overlay.network.metrics
    target_id = kad_id(key)
    with overlay.network.tracer.span(
            "kad.lookup.defended", key=key, start=start,
            parallel=True) as span:
        paths, failed_paths = _disjoint_paths(
            fabric, start, DISJOINT_PATHS,
            lambda ctx: overlay._iterate(ctx, key))
        agreed = sorted(
            set().union(*(set(path.closest) for path in paths)),
            key=lambda n: xor_distance(kad_id(n), target_id))
        closest = agreed[:K]
        tops = {path.closest[0] for path in paths if path.closest}
        if len(tops) <= 1:
            metrics.inc("lookup.disjoint_agreement", overlay="kad")
        else:
            metrics.inc("lookup.poisoned", overlay="kad", cause="outvoted")
        value = None
        rpcs = sum(path.rpcs for path in paths)
        if find_value:
            for name in closest:
                ok = fabric.call(start, name, "kad_fetch").ok
                rpcs += 1
                if not ok or adv.withholds(name, key):
                    continue
                store = overlay.nodes[name].store
                if key in store:
                    value = store[key]
                    break
        span.set_attr("paths", len(paths) + failed_paths)
        span.set_attr("agreed", len(agreed))
        return KadLookupResult(
            closest=closest, hops=max(path.hops for path in paths),
            rpcs=rpcs, value=value)
