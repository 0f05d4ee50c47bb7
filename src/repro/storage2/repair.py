"""Anti-entropy: periodic Merkle-summary sync and churn re-placement.

Read-repair only fixes holders a read happens to touch; the daemon closes
the rest of the gap.  On every tick of the simulator clock it

1. groups keys by replica set and has the live holders compare Merkle
   roots over their stored records (one accounted RPC per pair, reusing
   :mod:`repro.crypto.merkle`); mismatching pairs reconcile per key, the
   newest *verified* record winning (``storage.repair_pulls``);
2. re-places replicas whose holders churned away: when fewer than ``n``
   live holders still hold a verified copy, the next online ring
   successors receive the newest record and the placement is updated
   (``storage.re_replications``) — LibreSocial's availability-maintenance
   loop, driven here by virtual time so two runs repair identically.

Data loss is still possible — if every holder of a key is offline at
repair time there is nothing to copy from — which is exactly the
durability edge E14 measures.

**Liveness source.**  By default the daemon polls the churn oracle
(``network.is_online``) — knowledge no deployed repair loop has.  With a
membership service attached to the fabric it switches to the non-oracle
path: holders are presumed alive unless *confirmed dead* by the failure
detector, sync/re-replication copies are **pulled** by the believed-alive
target from the source (so a wrongly-believed-alive source fails the RPC
honestly instead of teleporting data), and cluster-first death
confirmations trigger an immediate targeted re-replication of the dead
holder's keys instead of waiting for the next tick
(``storage.confirm_triggered_repairs``).  The one piece of local
knowledge retained is each node's *own* ``online`` flag — a repair task
simply does not run on a machine that is down.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.crypto.hashing import digest, digest_many
from repro.crypto.merkle import MerkleTree
from repro.exceptions import CryptoError, IntegrityError, SimulationError
from repro.storage2.quorum import ReplicatedStore
from repro.storage2.record import StoredVersion, newest


class AntiEntropyDaemon:
    """Periodic repair over a :class:`ReplicatedStore`'s placements."""

    def __init__(self, store: ReplicatedStore, interval: float) -> None:
        if interval <= 0:
            raise SimulationError("repair interval must be positive")
        self.store = store
        self.interval = interval
        self.rounds = 0
        self._started = False
        #: the failure detector replacing the churn oracle (see module
        #: docstring), when one is attached to the store's fabric
        membership = self.membership = store.fabric.membership
        # The liveness source and the copy direction, chosen once: the
        # oracle and a push from the source, or the detector's beliefs
        # and a pull by the target (so a source that is believed alive
        # but actually gone fails the RPC instead of teleporting data).
        # Either way a repair task runs only at a node that is really up:
        # the node's knowledge of itself, which the oracle extends to all.
        self._can_initiate = self._believes_alive = store.network.is_online
        self._direction = lambda source, target: (source, target)
        if membership is not None:
            self._believes_alive = \
                lambda peer: not membership.confirmed_dead(peer)
            self._direction = lambda source, target: (target, source)
            membership.on_confirm(self._on_confirmed_death)

    def start(self) -> None:
        """Schedule the recurring repair tick on the simulator clock."""
        if self._started:
            return
        self._started = True
        self.store.sim.schedule(self.interval, self._tick)

    def _tick(self) -> None:
        self.run_round()
        self.store.sim.schedule(self.interval, self._tick)

    # -- one repair round --------------------------------------------------------

    def run_round(self) -> None:
        """Sync all replica groups, then re-place under-replicated keys."""
        store = self.store
        self.rounds += 1
        store.metrics.inc("storage.repair_rounds")
        with store.network.tracer.span("storage2.repair",
                                       round=self.rounds):
            groups: Dict[Tuple[str, ...], List[str]] = {}
            for key in sorted(store.placements):
                groups.setdefault(tuple(store.placements[key]),
                                  []).append(key)
            for holders, keys in sorted(groups.items()):
                live = [h for h in holders if self._believes_alive(h)]
                if len(live) < 2:
                    continue  # nobody to compare notes with
                # Beliefs pick the group; only a node that is really up
                # can run the comparison task (self-knowledge).
                initiators = [h for h in live if self._can_initiate(h)]
                if not initiators:
                    continue
                coordinator = initiators[0]
                local_root = self._summary_root(coordinator, keys)
                with store.network.tracer.span("storage2.repair.group",
                                               parallel=True,
                                               keys=len(keys)):
                    for peer in live[1:]:
                        # One peer's chain (root check, then its pulls)
                        # is serial; the chains across peers overlap.
                        with store.network.tracer.span(
                                "storage2.repair.peer", peer=peer):
                            ok = store.fabric.call(coordinator, peer,
                                                   "antientropy_root").ok
                            if not ok:
                                continue
                            if self._summary_root(peer, keys) == local_root:
                                continue
                            self._sync_pair(coordinator, peer, keys)
            # Re-placement is inherently sequential: each key's pushes
            # update the placement the next decision reads.
            for key in sorted(store.placements):
                self._re_replicate(key)

    def _stored(self, holder: str, key: str) -> Optional[bytes]:
        node = self.store.ring.nodes.get(holder)
        if node is None:
            return None
        return node.store.get(key)

    def _summary_root(self, holder: str, keys: List[str]) -> bytes:
        """Merkle root over the holder's records for a key group."""
        tree = MerkleTree()
        for key in keys:
            blob = self._stored(holder, key)
            tree.append(digest_many(
                [key.encode(), digest(blob) if blob is not None else b""]))
        return tree.root()

    def _best_record(self, holders: List[str], key: str
                     ) -> Optional[Tuple[str, StoredVersion]]:
        """The newest *verified* copy among the given holders."""
        copies: List[Tuple[str, StoredVersion]] = []
        for holder in holders:
            blob = self._stored(holder, key)
            if blob is None:
                continue
            try:
                record = self.store._verify(key, blob)
            except (IntegrityError, CryptoError):
                continue  # a poisoned at-rest copy never propagates
            copies.append((holder, record))
        return newest(copies)

    def _sync_pair(self, a: str, b: str, keys: List[str]) -> None:
        """Reconcile two live holders whose summaries disagree.

        Per-key pulls are independent (each moves one record between the
        same two holders), so they overlap.
        """
        store = self.store
        with store.network.tracer.span("storage2.repair.pulls",
                                       parallel=True, keys=len(keys)):
            for key in keys:
                blob_a = self._stored(a, key)
                blob_b = self._stored(b, key)
                if blob_a == blob_b:
                    continue
                best = self._best_record([a, b], key)
                if best is None:
                    continue
                source, record = best
                encoded = record.encode()
                for target in (a, b):
                    if target == source \
                            or self._stored(target, key) == encoded:
                        continue
                    if self._copy(source, target, key, encoded,
                                  "antientropy_pull"):
                        store.metrics.inc("storage.repair_pulls")

    def _re_replicate(self, key: str) -> None:
        """Restore ``n`` live verified holders after churn departures."""
        store = self.store
        target = store.config.n
        placed = store.placements[key]
        live = [h for h in placed
                if self._believes_alive(h)
                and self._stored(h, key) is not None]
        if len(live) >= target:
            return
        best = self._best_record(live, key)
        if best is None:
            return  # every live copy is gone or invalid: nothing to clone
        source, record = best
        encoded = record.encode()
        new_placement = list(live)
        for candidate in self._candidates(key):
            if len(new_placement) >= target:
                break
            if candidate in placed or candidate in new_placement:
                continue
            if self._copy(source, candidate, key, encoded, "re_replicate"):
                new_placement.append(candidate)
                store.metrics.inc("storage.re_replications")
        # Offline ex-holders drop out of the placement (their copies
        # linger as exposure, but reads and repair stop counting on them).
        if len(new_placement) > len(live):
            store.placements[key] = new_placement

    def _copy(self, source: str, target: str, key: str, encoded: bytes,
              kind: str) -> bool:
        """Copy one record ``source`` → ``target`` (the RPC goes out from
        whichever end the direction makes the initiator, and only if that
        node is up); whether ``target``'s bytes changed."""
        caller, callee = self._direction(source, target)
        if not self._can_initiate(caller):
            return False
        ok = self.store.fabric.call(caller, callee, kind).ok
        return ok and self.store.store_at(target, key, encoded)

    def _candidates(self, key: str) -> List[str]:
        """Online peers in ring order starting at the key's owner."""
        return [name for name in self.store.ring.ring_order(key)
                if self._believes_alive(name)]

    # -- confirm-triggered repair (non-oracle path only) ---------------------------

    def _on_confirmed_death(self, peer: str, now: float) -> None:
        """Membership confirmed ``peer`` dead: repair its keys right away."""
        keys = sorted(k for k, holders in self.store.placements.items()
                      if peer in holders)
        if not keys:
            return
        self.store.metrics.inc("storage.confirm_triggered_repairs")
        self.store.sim.schedule(
            0.0, lambda: self._repair_keys(peer, keys))

    def _repair_keys(self, peer: str, keys: List[str]) -> None:
        store = self.store
        with store.network.tracer.span("storage2.confirm_repair",
                                       peer=peer, keys=len(keys)):
            for key in keys:
                if key in store.placements:
                    self._re_replicate(key)
