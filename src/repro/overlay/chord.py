"""Chord distributed hash table — the structured control overlay.

Section II-B of the paper: "Most of the recent DOSNs use structured
organization and distributed hash tables (DHTs) for the lookup service.
Prpl, Peerson, Safebook and Cachet all utilize structured control overlay
... queries will be resolved in a limited number of steps."

Classic Chord (Stoica et al.) over the simulated network: an ``m``-bit
identifier ring, finger tables for O(log n) iterative lookup, successor
lists for fault tolerance, and key replication on the successor set.
Lookups are *accounted* through :meth:`SimNetwork.rpc_issue`, so
experiment E5 gets faithful hop and message counts, including retries
around offline peers under churn.

Both construction modes are provided: :meth:`ChordRing.build` computes
exact routing state for a static peer set (what the lookup experiments
use), and :meth:`ChordRing.join` + :meth:`ChordRing.stabilize_all`
implement the incremental protocol (``examples/overlay_taxonomy.py``
shows a latecomer converge).
"""

from __future__ import annotations

import hashlib
from bisect import bisect_left
from dataclasses import dataclass
from functools import partial
from typing import (AbstractSet, Any, Dict, List, Optional, Sequence, Set,
                    Tuple)

from repro.exceptions import (DeadlineExceededError, LookupError_,
                              OverlayError, OverloadedError, StorageError)
from repro.overlay.network import SimNode

#: Identifier-space size in bits.
M_BITS = 32
_SPACE = 1 << M_BITS


def chord_id(name: str) -> int:
    """Hash a node name or content key onto the identifier ring."""
    return int.from_bytes(
        hashlib.sha256(b"repro/chord/" + name.encode()).digest()[:8],
        "big") % _SPACE


def in_interval(x: int, a: int, b: int, inclusive_right: bool = False) -> bool:
    """Ring-interval membership test ``x in (a, b)`` modulo 2^m."""
    if a < b:
        return a < x < b or (inclusive_right and x == b)
    if a > b:  # interval wraps zero
        return x > a or x < b or (inclusive_right and x == b)
    # a == b: the interval is the whole ring minus the endpoint.
    return x != a or inclusive_right


@dataclass
class LookupResult:
    """Outcome of one iterative lookup.

    ``resolver`` is the node whose answer named the owner — the peer a
    defended lookup holds accountable when the claim loses a
    disjoint-path vote (``None`` for direct replica reads).
    """

    owner: str
    hops: int
    rtt: float
    failed_probes: int
    resolver: Optional[str] = None


class ChordNode(SimNode):
    """One Chord peer: routing state plus a local key-value store."""

    def __init__(self, name: str) -> None:
        super().__init__(name)
        self.chord_id = chord_id(name)
        self.successors: List[str] = []   # successor list, nearest first
        self.predecessor: Optional[str] = None
        self.fingers: List[Optional[str]] = [None] * M_BITS
        #: the distinct peers ``fingers`` names, farthest first: what
        #: :meth:`next_step` scans.  Rebuilt by
        #: :meth:`ChordRing._index_fingers` after every write to ``fingers``
        self.finger_nodes: Tuple["ChordNode", ...] = ()
        self.store: Dict[str, bytes] = {}

    # -- routing-table reads (executed at the *queried* node) -----------------

    def first_live_successor(self, ring: "ChordRing") -> Optional[str]:
        """The nearest online entry of the successor list."""
        for succ in self.successors:
            if ring.network.is_online(succ):
                return succ
        return None

    def next_step(self, key_id: int, ring: "ChordRing",
                  avoid: AbstractSet[str],
                  distrust: AbstractSet[str] = frozenset(),
                  whole_list: bool = False) -> Tuple[str, bool]:
        """This node's routing answer for ``key_id``: ``(peer, is_owner)``.

        If the nearest live successor (skipping ``avoid``) covers the key
        it is the owner; otherwise the lookup moves to the closest
        preceding finger neither avoided nor ``distrust``-ed (then the
        nearest such successor), falling back to that successor.
        ``whole_list`` lets *any* live entry of the successor list
        covering the key name the owner (redundant successor
        verification: one compromised immediate predecessor is then not
        a routing choke point).
        """
        own_id = self.chord_id
        # Both ring tests as one modular distance from ``own``: ``key in
        # (own, succ]`` is ``key_gap <= succ_gap`` and ``x in (own, key)``
        # is ``0 < x_gap < key_gap``, where a gap of 0 reads as the whole
        # ring (key == own, or a one-node ring's succ == own)
        key_gap = (key_id - own_id) % _SPACE or _SPACE
        nodes = ring.nodes
        successor = None
        for succ in self.successors:
            node = nodes.get(succ)
            if node is None or not node.online or succ in avoid:
                continue
            if key_gap <= ((node.chord_id - own_id) % _SPACE or _SPACE):
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
        # a duplicate finger gives its first occurrence's answer, so
        # scanning each distinct peer once is the 32-entry scan
        for node in self.finger_nodes:
            if node.online \
                    and 0 < (node.chord_id - own_id) % _SPACE < key_gap \
                    and node.node_id not in avoid:
                return node.node_id, False
        for succ in self.successors:
            node = nodes.get(succ)
            if node is not None and node.online \
                    and 0 < (node.chord_id - own_id) % _SPACE < key_gap \
                    and succ not in avoid:
                return succ, False
        return successor, False


class ChordRing:
    """A Chord overlay over a :class:`repro.fabric.Fabric`: routing
    geometry and storage placement.  RPCs go through the fabric, budget /
    liveness / adversary decisions through each operation's
    :class:`~repro.fabric.OpContext`.
    """

    def __init__(self, fabric: Any, successor_list_size: int = 4,
                 replication: int = 1) -> None:
        from repro.fabric import coerce_fabric  # avoids an import cycle
        if replication < 1:
            raise OverlayError("replication factor must be >= 1")
        self.fabric = coerce_fabric(fabric, "ChordRing")
        self.network = self.fabric.network
        self.successor_list_size = successor_list_size
        self.replication = replication
        self.nodes: Dict[str, ChordNode] = {}
        #: the ring in id order: ``_ids[i]`` is the chord id of node
        #: ``_names[i]``, ascending.  :meth:`add_node` is the only writer
        #: of ``nodes`` and keeps both in step, so no reader ever sorts.
        self._ids: List[int] = []
        self._names: List[str] = []
        # one iterative path, or the defense's vote over disjoint ones
        self._lookup = lambda start, key, max_hops: self._route(
            self.fabric.op(start), key, max_hops)
        adversary = self.fabric.adversary
        if adversary is not None and adversary.config.defense is not None:
            from repro.adversary.defense import defended_chord_lookup
            self._lookup = partial(defended_chord_lookup, self)

    # -- construction -----------------------------------------------------------

    def add_node(self, name: str) -> ChordNode:
        """Register a peer (routing state filled by build/join)."""
        node = ChordNode(name)
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

    def build(self) -> None:
        """Compute exact fingers/successors for the current static peer set."""
        ids, names = self._ids, self._names
        n = len(names)
        for index, name in enumerate(names):
            node = self.nodes[name]
            node.successors = [
                names[(index + k + 1) % n]
                for k in range(min(self.successor_list_size, n - 1))
            ] or [name]
            node.predecessor = names[(index - 1) % n]
            for bit in range(M_BITS):
                target = (node.chord_id + (1 << bit)) % _SPACE
                node.fingers[bit] = names[self._successor_index(ids, target)]
            self._index_fingers(node)

    def _index_fingers(self, node: ChordNode) -> None:
        """The one writer of ``node.finger_nodes``: the distinct peers of
        ``node.fingers``, first occurrence in reversed order (unset
        entries name nobody).  Whatever rewrites fingers calls it."""
        nodes = self.nodes
        node.finger_nodes = tuple(
            nodes[name] for name in dict.fromkeys(reversed(node.fingers))
            if name is not None)

    @staticmethod
    def _successor_index(sorted_ids: Sequence[int], target: int) -> int:
        """Index of the first id >= target (wrapping)."""
        try:
            return bisect_left(sorted_ids, target) % len(sorted_ids)
        except ZeroDivisionError:
            raise OverlayError(
                "the chord ring is empty: add a node first") from None

    # -- the iterative lookup (experiment E5's workhorse) -----------------------

    def owner_of(self, key: str) -> str:
        """Ground truth: the online-agnostic responsible node for ``key``."""
        return self._names[self._successor_index(self._ids, chord_id(key))]

    def ring_order(self, key: str) -> List[str]:
        """Every node name in id order, starting at ``key``'s owner."""
        start = self._successor_index(self._ids, chord_id(key))
        return self._names[start:] + self._names[:start]

    def lookup(self, start: str, key: str,
               max_hops: int = 64) -> LookupResult:
        """Iterative Chord lookup from ``start`` for ``key``.

        Each routing step is one accounted RPC; offline peers cost a
        timeout and a fallback probe, mirroring real retry behaviour.
        What the fabric has attached acts through the lookup's
        :class:`~repro.fabric.OpContext`: on a resilient fabric a peer
        still unresponsive *after* retries is written off and detoured
        for the rest of the lookup (a membership view pre-seeds the
        write-offs with its confirmed-dead peers — the health-aware
        routing half of E15); the overload config's time budget is
        checked before every hop and raises
        :class:`~repro.exceptions.DeadlineExceededError` instead of
        issuing an RPC nobody will wait for; an adversary
        model may forge compromised responders' answers.  A bare client
        *trusts* routing responses, so a forged owner claim is accepted
        as final (the vulnerability E19 measures); with a
        :class:`~repro.adversary.config.DefenseConfig` the whole lookup
        is handed to :func:`~repro.adversary.defense
        .defended_chord_lookup`, which votes over disjoint
        :meth:`_route` paths.
        """
        return self._lookup(start, key, max_hops)

    def _route(self, ctx: Any, key: str, max_hops: int = 64,
               whole_list: bool = False) -> LookupResult:
        """One iterative path from ``ctx.origin``: per hop the current
        node's answer (forged if an adversary interposed,
        :meth:`ChordNode.next_step` otherwise), then one RPC to the peer
        it names."""
        start = ctx.origin
        current = self.nodes.get(start)
        if current is None or not current.online:
            raise LookupError_(f"start node {start!r} is not online")
        key_id = chord_id(key)
        avoid = ctx.avoid
        hops = failed = 0
        with self.network.tracer.span("chord.lookup", key=key,
                                      start=start) as span:
            while hops < max_hops:
                if ctx.expired("chord_lookup"):
                    raise DeadlineExceededError(
                        f"lookup for {key!r} ran out of budget after "
                        f"{hops} hops ({ctx.spent:.3f}s spent)")
                name = current.node_id
                forged = None if name == start \
                    else ctx.answer("chord", name, key)
                if forged is not None:
                    # a bare client trusts the claim as-is
                    target, final = forged.claims[0][0], \
                        forged.final is not None
                else:
                    target, final = current.next_step(
                        key_id, self, avoid, ctx.distrust, whole_list)
                    if final and ctx.certified:
                        ctx.check_claim("chord", name, target)
                ok = ctx.call(name, target,
                              "chord_final" if final else "chord_step").ok
                hops += 1
                if not ok:
                    # the target died mid-lookup; the next answer moves on
                    failed += 1
                    ctx.write_off(target)
                    if forged is not None:
                        raise LookupError_(
                            f"forged route target {target!r} for "
                            f"{key!r} is unreachable")
                elif final:
                    span.set_attr("hops", hops)
                    span.set_attr("failed_probes", failed)
                    span.set_attr("owner", target)
                    return LookupResult(owner=target, hops=hops,
                                        rtt=ctx.spent, failed_probes=failed,
                                        resolver=name)
                else:
                    current = self.nodes[target]
            raise LookupError_(
                f"lookup for {key!r} exceeded {max_hops} hops")

    # -- storage with successor-list replication ----------------------------------

    def replica_set(self, key: str) -> List[str]:
        """The ``replication`` nodes responsible for ``key``."""
        owner = self.owner_of(key)
        replicas = [owner]
        node = self.nodes[owner]
        for succ in node.successors:
            if len(replicas) >= self.replication:
                break
            if succ not in replicas:
                replicas.append(succ)
        return replicas

    def put(self, start: str, key: str, value: bytes) -> LookupResult:
        """Route to the owner and store on each replica that acks it."""
        with self.network.tracer.span("chord.put", key=key, start=start):
            result = self.lookup(start, key)
            for replica in self.replica_set(key):
                if replica == result.owner or self.fabric.call(
                        result.owner, replica, "chord_replicate").ok:
                    self.nodes[replica].store[key] = value
            return result

    def get(self, start: str, key: str) -> Tuple[bytes, LookupResult]:
        """Route to the owner (or a live replica) and fetch.

        The one-key case of :meth:`get_many`'s per-owner routine
        (:meth:`_get_group`), with the failure raised instead of
        returned: the routed owner serves free, the reader probes the
        other holders, and on a resilient fabric a failed route degrades
        to probing the replica set, so any reachable holder serves.

        Latency note: the replica probing is sequential *failover* (try
        the next holder only after the previous one fails), not true
        hedging, so its cost is the serial sum of the probes it needed;
        staggered hedging lives in
        :meth:`repro.faults.ReliableChannel.hedged`.
        """
        with self.network.tracer.span("chord.get", key=key, start=start):
            served, result = self._get_group(start, [key],
                                             "chord_replica_read")
            value = served[key]
            if isinstance(value, Exception):
                raise value
            return value, result

    # -- batched reads (the feed fan-out / cache-warming path) -------------------

    def get_many(self, start: str, keys: Sequence[str]
                 ) -> Dict[str, object]:
        """Batched fetch: one route per owner, one RPC per extra holder.

        Keys hashing to the same owner share a single iterative lookup —
        the route amortizes over the whole group, because successor-list
        replica sets are a function of the owner alone — and each holder
        beyond the routed node is asked for *all* of its keys in one
        ``chord_batch_fetch`` RPC instead of one RPC per key.  Failures
        come back as exception **values** keyed by cid (a
        :class:`StorageError`, a :class:`DeadlineExceededError` or the
        routing :class:`LookupError_`), so one unreachable key never
        fails the batch.  Per-key serving semantics are :meth:`get`'s by
        construction: both run :meth:`_get_group`.
        """
        results: Dict[str, object] = {}
        seen: Set[str] = set()
        groups: Dict[str, List[str]] = {}
        for key in keys:
            if key in seen:
                continue
            seen.add(key)
            groups.setdefault(self.owner_of(key), []).append(key)
        with self.network.tracer.span("chord.get_many", start=start,
                                      keys=len(seen),
                                      owners=len(groups)) as span:
            # Owner groups are independent fetch chains (route + holder
            # probes); a real client runs them concurrently, so each group
            # is a serial sub-span and the groups roll up as max.
            with self.network.tracer.span("chord.get_many.fanout",
                                          parallel=True,
                                          owners=len(groups)):
                for owner, group in groups.items():
                    with self.network.tracer.span("chord.get_group",
                                                  owner=owner):
                        served, _ = self._get_group(start, group,
                                                    "chord_batch_fetch")
                        results.update(served)
            span.set_attr("served",
                          sum(1 for v in results.values()
                              if not isinstance(v, Exception)))
        return results

    def _get_group(self, start: str, group: List[str], kind: str
                   ) -> Tuple[Dict[str, object], Optional[LookupResult]]:
        """The one replica read: serve keys sharing an owner over one route.

        Returns ``({key: value | exception}, route)``.  An exhausted
        budget becomes a :class:`DeadlineExceededError` *value* for the
        unserved keys (one starved group never fails a whole fan-out),
        shed probes an :class:`OverloadedError`.  The routed node's keys
        ride the route free; the reader probes every other holder in
        ``ctx.order``, one ``kind`` RPC each, and takes what an ``ok``
        reply's holder has (the reply, never a peek at the holder's
        store, says who is down and what it holds; probes after the
        first are hedges, an empty answer included).  A failed route
        fails the group on a bare fabric; on a resilient one the reader
        probes the replica set, ``route`` then naming the holder that
        served.
        """
        ctx = self.fabric.op(start)
        try:
            route = self.lookup(start, group[0])
        except DeadlineExceededError as exc:
            # an exhausted budget must not trigger the direct-probe fallback
            return dict.fromkeys(group, exc), None
        except LookupError_ as exc:
            # a resilient route failed after the channel's retries
            if not self.fabric.resilient:
                return dict.fromkeys(group, exc), None
            route, free = None, ()
        else:
            ctx.spent = route.rtt
            free = (route.owner,)
        holders = [*free, *ctx.order([r for r in self.replica_set(group[0])
                                      if r not in free])]
        served: Dict[str, object] = {}
        pending: Set[str] = set(group)
        failure: Optional[Exception] = None
        probed = sheds = 0
        for replica in holders:
            if not pending:
                break
            if ctx.expired(kind):
                failure = DeadlineExceededError(
                    f"read ran out of budget after {probed} replica "
                    f"probes with {len(pending)} keys unserved")
                break
            if replica not in free:
                if probed:
                    self.network.metrics.inc("net.hedges", kind=kind)
                probed += 1
                reply = ctx.call(start, replica, kind)
                if not reply.ok:
                    if reply.cause == "overloaded":
                        sheds += 1
                    continue
            store = self.nodes[replica].store
            stocked = [k for k in group if k in pending and k in store]
            for key in stocked:
                served[key] = store[key]
                pending.discard(key)
            if stocked and route is None:
                route = LookupResult(owner=replica, hops=0,
                                     rtt=reply.latency, failed_probes=0)
        for key in group:
            if key not in pending:
                continue
            if failure is not None:
                served[key] = failure
            elif sheds:
                served[key] = OverloadedError(
                    f"key {key!r} unavailable: {sheds} of {probed} replica "
                    "probes were shed by overloaded holders")
            else:
                served[key] = StorageError(
                    f"key {key!r} unavailable: no reachable replica "
                    "holds it")
        return served, route

    # -- incremental protocol (join / stabilize) ----------------------------------

    def join(self, name: str, via: str) -> ChordNode:
        """Join a new peer through an existing one (successor via lookup)."""
        node = self.add_node(name)
        result = self.lookup(via, name)
        node.successors = [result.owner]
        node.fingers[0] = result.owner
        self._index_fingers(node)
        return node

    def stabilize_all(self, rounds: int = 1) -> None:
        """Run the periodic stabilization on every node ``rounds`` times."""
        for _ in range(rounds):
            for node in list(self.nodes.values()):
                if node.online:
                    self._stabilize(node)
            for node in list(self.nodes.values()):
                if node.online:
                    self._fix_fingers(node)

    def _stabilize(self, node: ChordNode) -> None:
        successor = node.first_live_successor(self)
        if successor is None:
            return
        succ_node = self.nodes[successor]
        pred = succ_node.predecessor
        if pred is not None and self.network.is_online(pred):
            pred_node = self.nodes[pred]
            if in_interval(pred_node.chord_id, node.chord_id,
                           succ_node.chord_id):
                successor = pred
                succ_node = pred_node
        # notify
        if succ_node.predecessor is None or not self.network.is_online(
                succ_node.predecessor) or in_interval(
                    node.chord_id,
                    self.nodes[succ_node.predecessor].chord_id
                    if succ_node.predecessor in self.nodes else 0,
                    succ_node.chord_id):
            succ_node.predecessor = node.node_id
        # refresh successor list from the successor's list
        merged = [successor] + [
            s for s in succ_node.successors if s != node.node_id]
        node.successors = merged[:self.successor_list_size]
        self.fabric.call(node.node_id, successor, "chord_stabilize")

    def _fix_fingers(self, node: ChordNode) -> None:
        online = [slot for slot, name in enumerate(self._names)
                  if self.nodes[name].online]
        if not online:
            return
        ids = [self._ids[slot] for slot in online]
        for bit in range(M_BITS):
            target = (node.chord_id + (1 << bit)) % _SPACE
            node.fingers[bit] = self._names[
                online[self._successor_index(ids, target)]]
        self._index_fingers(node)
