"""Semi-structured overlay: Supernova-style super-peers.

Section II-B of the paper: "Semi-structured DOSN makes use of super peers,
which are a subset of all users who are responsible for storing the index
and managing other users as proposed in Supernova ... Such a structure may
include lookup services and tracking of users up-time to find the best
places for replication."

Every ordinary peer registers with one super-peer; super-peers collectively
shard a user/content index and track member uptime.  Lookups cost at most
three accounted RPCs (peer -> own super-peer -> indexing super-peer ->
target), which experiment E5 contrasts with Chord's O(log n) and flooding's
O(edges).  Uptime tracking feeds :func:`best_replica_hosts` — the
"best places for replication" service used by experiment E6.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.exceptions import LookupError_, OverlayError
from repro.overlay.network import SimNetwork, SimNode


class Peer(SimNode):
    """An ordinary peer; knows only its super-peer."""

    def __init__(self, name: str) -> None:
        super().__init__(name)
        self.super_peer: Optional[str] = None
        self.store: Dict[str, bytes] = {}


class SuperPeer(SimNode):
    """A super-peer: member registry, index shard, uptime tracker."""

    def __init__(self, name: str) -> None:
        super().__init__(name)
        self.members: List[str] = []
        #: key -> holder peer names (this super-peer's index shard)
        self.index: Dict[str, List[str]] = {}
        #: member -> cumulative observed uptime fraction
        self.uptime: Dict[str, float] = {}

    def record_uptime(self, member: str, fraction: float) -> None:
        """Update the tracked uptime estimate for a member."""
        self.uptime[member] = fraction


@dataclass
class SPLookupResult:
    """Outcome of a super-peer lookup."""

    holders: List[str]
    hops: int
    rtt: float


class SuperPeerOverlay:
    """The two-tier overlay: peers sharded across super-peers."""

    def __init__(self, network: SimNetwork) -> None:
        self.network = network
        self.super_peers: Dict[str, SuperPeer] = {}
        self.peers: Dict[str, Peer] = {}

    # -- construction -----------------------------------------------------------

    def add_super_peer(self, name: str) -> SuperPeer:
        """Promote/create a super-peer."""
        sp = SuperPeer(name)
        self.super_peers[name] = sp
        self.network.register(sp)
        return sp

    def add_peer(self, name: str, super_peer: Optional[str] = None) -> Peer:
        """Create a peer, assigning it to a super-peer (hash-based default)."""
        if not self.super_peers:
            raise OverlayError("create super-peers before ordinary peers")
        peer = Peer(name)
        if super_peer is None:
            super_peer = self._assigned_super(name)
        if super_peer not in self.super_peers:
            raise OverlayError(f"unknown super-peer {super_peer!r}")
        peer.super_peer = super_peer
        self.super_peers[super_peer].members.append(name)
        self.peers[name] = peer
        self.network.register(peer)
        return peer

    def _assigned_super(self, name: str) -> str:
        ordered = sorted(self.super_peers)
        digest = hashlib.sha256(b"repro/sp/" + name.encode()).digest()
        return ordered[int.from_bytes(digest[:4], "big") % len(ordered)]

    def _index_super(self, key: str) -> str:
        """Which super-peer shards the index entry for ``key``."""
        ordered = sorted(self.super_peers)
        digest = hashlib.sha256(b"repro/sp/idx/" + key.encode()).digest()
        return ordered[int.from_bytes(digest[:4], "big") % len(ordered)]

    # -- publish / lookup ---------------------------------------------------------

    def publish(self, peer_name: str, key: str, value: bytes) -> None:
        """Store content locally and register it in the index shard.

        The entry lands only if the peer's super-peer acknowledges the
        ``sp_publish`` and, when another super-peer shards ``key``, that
        one acknowledges the ``sp_index``.
        """
        peer = self.peers[peer_name]
        peer.store[key] = value
        index_sp = self._index_super(key)
        if not self.network.rpc_issue(peer_name, peer.super_peer,
                                      "sp_publish").ok:
            return
        if index_sp != peer.super_peer and not self.network.rpc_issue(
                peer.super_peer, index_sp, "sp_index").ok:
            return
        holders = self.super_peers[index_sp].index.setdefault(key, [])
        if peer_name not in holders:
            holders.append(peer_name)

    def lookup(self, peer_name: str, key: str) -> SPLookupResult:
        """Resolve a key: at most peer->SP, SP->index-SP, then holders."""
        peer = self.peers.get(peer_name)
        if peer is None or not peer.online:
            raise LookupError_(f"peer {peer_name!r} is not online")
        hops = 0
        rtt = 0.0
        reply = self.network.rpc_issue(peer_name, peer.super_peer, "sp_query")
        hops += 1
        rtt += reply.latency
        if not reply.ok:
            raise LookupError_(
                f"super-peer {peer.super_peer!r} is unreachable")
        index_sp = self._index_super(key)
        if index_sp != peer.super_peer:
            reply = self.network.rpc_issue(peer.super_peer, index_sp,
                                           "sp_query")
            hops += 1
            rtt += reply.latency
            if not reply.ok:
                raise LookupError_(f"index super-peer {index_sp!r} is down")
        holders = list(self.super_peers[index_sp].index.get(key, ()))
        if not holders:
            raise LookupError_(f"key {key!r} is not indexed")
        return SPLookupResult(holders=holders, hops=hops, rtt=rtt)

    def fetch(self, peer_name: str, key: str) -> Tuple[bytes, SPLookupResult]:
        """Lookup then download from the first holder whose ``sp_fetch``
        reply is ``ok`` and has the key; each probe costs a hop."""
        result = self.lookup(peer_name, key)
        for holder in result.holders:
            reply = self.network.rpc_issue(peer_name, holder, "sp_fetch")
            result.hops += 1
            result.rtt += reply.latency
            if reply.ok and key in self.peers[holder].store:
                return self.peers[holder].store[key], result
        raise LookupError_(f"no live holder for {key!r}")

    # -- uptime-aware replica placement (feeds experiment E6) ---------------------

    def report_uptimes(self, fractions: Dict[str, float]) -> None:
        """Feed observed uptime fractions to each member's super-peer."""
        for member, fraction in fractions.items():
            peer = self.peers.get(member)
            if peer is not None and peer.super_peer:
                self.super_peers[peer.super_peer].record_uptime(member,
                                                                fraction)

    def best_replica_hosts(self, count: int,
                           exclude: Sequence[str] = ()) -> List[str]:
        """The ``count`` highest-uptime peers across all super-peers."""
        scored: List[Tuple[float, str]] = []
        for sp in self.super_peers.values():
            for member, fraction in sp.uptime.items():
                if member not in exclude:
                    scored.append((fraction, member))
        scored.sort(reverse=True)
        return [member for _, member in scored[:count]]
