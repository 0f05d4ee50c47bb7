"""Hybrid overlays: DHT base + social caching (Cachet / Cuckoo).

Section II-B of the paper: "As the storage overlay, Cachet uses hybrid
structured-unstructured overlay using a DHT-based approach together with
gossip-based caching to achieve high performance" and "The hybrid control
overlay of Cuckoo uses structured lookup for finding rare items, whereas,
the unstructured lookup helps with the fast discovery of popular items."

:class:`HybridOverlay` composes a :class:`~repro.overlay.chord.ChordRing`
with per-peer social caches: a fetch first polls the requester's social
neighbours (one cheap RPC each, unstructured phase) and falls back to the
DHT lookup (structured phase) on a miss, then caches the result locally so
popularity breeds cache hits.  Experiment E5's "popular vs. rare" series
comes straight from here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

import networkx as nx

from repro.cache.lru import LRUMap
from repro.exceptions import OverlayError
from repro.overlay.chord import ChordRing, LookupResult

#: social neighbours a fetch polls before falling back to the DHT
PROBE_LIMIT = 5
#: replicas the DHT keeps of each key
REPLICATION = 2


@dataclass
class HybridFetchResult:
    """Outcome of one hybrid fetch."""

    value: bytes
    source: str          # "cache" (social phase) or "dht"
    rpcs: int
    rtt: float


class HybridOverlay:
    """Chord storage + social-neighbour caches."""

    def __init__(self, fabric, graph: nx.Graph,
                 cache_capacity: int = 32) -> None:
        from repro.fabric import coerce_fabric  # avoids an import cycle
        self.fabric = coerce_fabric(fabric, "HybridOverlay")
        self.network = self.fabric.network
        self.graph = graph
        self.ring = ChordRing(self.fabric, replication=REPLICATION)
        self.caches: Dict[str, LRUMap[str, bytes]] = {}
        for name in graph.nodes:
            self.ring.add_node(str(name))
            self.caches[str(name)] = LRUMap(cache_capacity)
        self.ring.build()
        self.cache_hits = 0
        self.dht_fetches = 0

    def neighbors(self, name: str) -> List[str]:
        """Social neighbours of a peer."""
        return [str(n) for n in self.graph.neighbors(name)]

    def publish(self, author: str, key: str, value: bytes) -> LookupResult:
        """Store in the DHT and seed the author's own cache."""
        result = self.ring.put(author, key, value)
        self.caches[author].put(key, value)
        return result

    def fetch(self, reader: str, key: str) -> HybridFetchResult:
        """Unstructured phase (neighbour caches) then structured fallback."""
        if reader not in self.caches:
            raise OverlayError(f"unknown peer {reader!r}")
        own = self.caches[reader].get(key)
        if own is not None:
            self.cache_hits += 1
            return HybridFetchResult(value=own, source="cache", rpcs=0,
                                     rtt=0.0)
        rpcs = 0
        rtt = 0.0
        # Probe the healthiest neighbours' caches first and do not waste
        # probes on confirmed-dead ones — the DHT fallback covers a false
        # confirmation.
        ctx = self.fabric.op(reader)
        neighbors = [n for n in ctx.order(self.neighbors(reader))
                     if n not in ctx.avoid]
        for neighbor in neighbors[:PROBE_LIMIT]:
            reply = self.network.rpc_issue(reader, neighbor, "hybrid_probe")
            rpcs += 1
            rtt += reply.latency
            if not reply.ok:
                continue
            cached = self.caches[neighbor].get(key)
            if cached is not None:
                self.caches[reader].put(key, cached)
                self.cache_hits += 1
                return HybridFetchResult(value=cached, source="cache",
                                         rpcs=rpcs, rtt=rtt)
        value, lookup = self.ring.get(reader, key)
        self.caches[reader].put(key, value)
        self.dht_fetches += 1
        return HybridFetchResult(value=value, source="dht",
                                 rpcs=rpcs + lookup.hops,
                                 rtt=rtt + lookup.rtt)

    def cache_hit_rate(self) -> float:
        """Fraction of fetches served from the unstructured phase."""
        total = self.cache_hits + self.dht_fetches
        return self.cache_hits / total if total else 0.0
