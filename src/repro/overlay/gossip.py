"""Unstructured overlays: flooding and push gossip over the social graph.

Section II-B of the paper: "**Unstructured**: No user in the system store
any index, and operations of system are simply done by the use of flooding
or gossip-based communication between users.  This kind of management has
almost zero overhead."  ("Zero overhead" = no index maintenance; the price
is paid per query, which is exactly what experiment E5 measures.)

Both primitives run event-driven on the simulator:

* :func:`flood_search` — TTL-limited flooding looking for the peer holding
  a key (Gnutella-style); returns whether/when it was found and the total
  message cost.
* :func:`gossip_disseminate` — push gossip: each infected peer forwards
  to ``RUMOR_FANOUT`` random neighbours; returns the coverage curve over
  rounds (the classic logistic curve).
"""

from __future__ import annotations

import random as _random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set

import networkx as nx

from repro.exceptions import OverlayError
from repro.overlay.network import Message, SimNetwork, SimNode

#: how many random neighbours an infected peer pushes a rumor to
RUMOR_FANOUT = 3


class GossipNode(SimNode):
    """A peer in the unstructured overlay, linked to social neighbours."""

    def __init__(self, name: str) -> None:
        super().__init__(name)
        self.neighbors: List[str] = []
        self.store: Set[str] = set()          # keys this peer holds
        self.seen_queries: Set[str] = set()   # duplicate suppression
        self.received: Dict[str, float] = {}  # rumor id -> arrival time
        self._search: Optional["_SearchState"] = None
        self._rng: Optional[_random.Random] = None

    # -- flooding search -------------------------------------------------------

    def on_flood_query(self, message: Message) -> None:
        """Handle a flooded query: answer if we hold the key, else forward."""
        query_id = message.payload["query_id"]
        if query_id in self.seen_queries:
            return
        self.seen_queries.add(query_id)
        state: _SearchState = message.payload["state"]
        key = message.payload["key"]
        ttl = message.payload["ttl"]
        if key in self.store:
            state.record_hit(self.node_id, self.network.sim.now)
            return
        if ttl <= 0:
            return
        for neighbor in self.neighbors:
            if neighbor == message.src:
                continue
            if not self.network.is_online(neighbor):
                continue  # don't pay to flood peers currently offline
            self.network.send(Message(
                kind="flood_query", src=self.node_id, dst=neighbor,
                payload={"query_id": query_id, "key": key, "ttl": ttl - 1,
                         "state": state}))

    # -- push gossip --------------------------------------------------------------

    def on_rumor(self, message: Message) -> None:
        """Handle a pushed rumor: record and forward to random neighbours."""
        rumor_id = message.payload["rumor_id"]
        if rumor_id in self.received:
            return
        self.received[rumor_id] = self.network.sim.now
        # The fabric's liveness source gates forwarding: a rumor is not
        # pushed toward peers the churn model currently has offline
        # (they rejoin with no way to receive it, and the messages were
        # being counted as if delivery were possible).
        targets = [n for n in self.neighbors
                   if n != message.src and self.network.is_online(n)]
        if self._rng is not None and len(targets) > RUMOR_FANOUT:
            targets = self._rng.sample(targets, RUMOR_FANOUT)
        for neighbor in targets:
            self.network.send(Message(
                kind="rumor", src=self.node_id, dst=neighbor,
                payload={"rumor_id": rumor_id}))


@dataclass
class _SearchState:
    """Shared mutable result slot for one flooded query."""

    hits: List[str] = field(default_factory=list)
    first_hit_time: Optional[float] = None

    def record_hit(self, node: str, when: float) -> None:
        self.hits.append(node)
        if self.first_hit_time is None:
            self.first_hit_time = when


@dataclass
class FloodResult:
    """Outcome and cost of one flooding search."""

    found: bool
    holders_reached: List[str]
    first_hit_time: Optional[float]
    messages: int


class GossipOverlay:
    """An unstructured overlay shaped by a social graph."""

    def __init__(self, network: SimNetwork, graph: nx.Graph) -> None:
        self.network = network
        self.graph = graph
        self.nodes: Dict[str, GossipNode] = {}
        rng = network.sim.split_rng("gossip")
        for name in graph.nodes:
            node = GossipNode(str(name))
            node.neighbors = [str(n) for n in graph.neighbors(name)]
            node._rng = rng
            self.nodes[str(name)] = node
            network.register(node)

    def place_key(self, key: str, holder: str) -> None:
        """Declare that ``holder`` stores ``key``."""
        self.nodes[holder].store.add(key)

    def flood_search(self, start: str, key: str, ttl: int = 6) -> FloodResult:
        """TTL-limited flood from ``start``; runs the simulator to quiescence."""
        if start not in self.nodes:
            raise OverlayError(f"unknown start node {start!r}")
        if not self.network.is_online(start):
            raise OverlayError(f"start node {start!r} is offline")
        state = _SearchState()
        query_id = f"{start}/{key}/{self.network.sim.now}"
        before = self.network.stats.messages
        self.network.send(Message(
            kind="flood_query", src=start, dst=start,
            payload={"query_id": query_id, "key": key, "ttl": ttl,
                     "state": state}))
        self.network.sim.run()
        return FloodResult(
            found=bool(state.hits), holders_reached=list(state.hits),
            first_hit_time=state.first_hit_time,
            messages=self.network.stats.messages - before)

    def gossip_disseminate(self, origin: str, rumor_id: str,
                           until: Optional[float] = None) -> Dict[str, float]:
        """Push-gossip a rumor; returns node -> arrival time for reached peers."""
        if origin not in self.nodes:
            raise OverlayError(f"unknown origin {origin!r}")
        if not self.network.is_online(origin):
            raise OverlayError(f"origin {origin!r} is offline")
        self.network.send(Message(
            kind="rumor", src=origin, dst=origin,
            payload={"rumor_id": rumor_id}))
        self.network.sim.run(until=until)
        return {name: node.received[rumor_id]
                for name, node in self.nodes.items()
                if rumor_id in node.received}

    def coverage(self, rumor_id: str) -> float:
        """Fraction of peers that have received the rumor."""
        reached = sum(1 for node in self.nodes.values()
                      if rumor_id in node.received)
        return reached / max(1, len(self.nodes))
