"""Supernova: super-peer based DOSN with storekeepers (Sharma & Datta).

As the paper describes it: "Semi-structured DOSN makes use of super peers,
which are a subset of all users who are responsible for storing the index
and managing other users ... Such a structure may include lookup services
and tracking of users up-time to find the best places for replication"
(Section II-B).

Composition: :class:`~repro.overlay.superpeer.SuperPeerOverlay` provides
index + uptime tracking; on top we add Supernova's defining concept —
**storekeepers**: peers recommended by super-peers (by tracked uptime) who
hold a user's encrypted data while the user is offline.  Availability then
follows the storekeeper agreement, not the owner's own uptime.
"""

from __future__ import annotations

import random as _random
from typing import Dict, List, Tuple

from repro.acl import SymmetricKeyACL
from repro.exceptions import OverlayError, StorageError
from repro.fabric import Fabric
from repro.overlay.superpeer import SuperPeerOverlay
from repro.stack import (AclLayer, ContentItem, LayerSpec, PlacementLayer,
                         ProtectionStack, SystemSpec, register_system)

SUPERNOVA_SPEC = register_system(SystemSpec(
    name="supernova",
    citation="Sharma & Datta",
    overlay="semi-structured super-peer tier with uptime tracking",
    layers=(
        LayerSpec("acl", "owner symmetric key",
                  table1_rows=("Symmetric key encryption",),
                  detail="one content key per owner, handed to friends "
                         "out of band"),
        LayerSpec("placement", "storekeeper replication",
                  detail="uptime-picked storekeepers hold ciphertext; "
                         "super-peers index the keeper set "
                         "(Section II-B)"),
    )))


#: super-peers indexing the storekeeper agreements
SUPER_PEERS = 4
#: storekeepers each user's agreement names
STOREKEEPERS_PER_USER = 3


class SupernovaNetwork:
    """A Supernova deployment: super-peers + uptime-picked storekeepers."""

    def __init__(self, seed: int = 0) -> None:
        self.fabric = Fabric.create(seed=seed)
        self.sim = self.fabric.sim
        self.network = self.fabric.network
        self.overlay = SuperPeerOverlay(self.network)
        for index in range(SUPER_PEERS):
            self.overlay.add_super_peer(f"sp{index}")
        #: one group per owner: the owner plus the friends it shared with
        self.acl = SymmetricKeyACL(rng=_random.Random(seed))
        #: owner -> storekeeper agreement (names)
        self.agreements: Dict[str, List[str]] = {}
        #: storekeeper -> {(owner, item): sealed record}
        self._kept: Dict[str, Dict[Tuple[str, str], object]] = {}
        self.stack = ProtectionStack([
            AclLayer(post=self._owner_encrypt, read=self._owner_decrypt,
                     spec=SUPERNOVA_SPEC.layers[0]),
            PlacementLayer(post=self._keeper_store, read=self._keeper_fetch,
                           spec=SUPERNOVA_SPEC.layers[1]),
        ], spec=SUPERNOVA_SPEC)

    # -- membership -----------------------------------------------------------------

    def register(self, name: str) -> None:
        """Join under a (hash-assigned) super-peer."""
        self.overlay.add_peer(name)
        self.acl.create_group(name, [name])
        self._kept[name] = {}

    def share_key(self, owner: str, friend: str) -> None:
        """Hand ``friend`` the owner's content key (out of band)."""
        self.acl.add_member(owner, friend)

    def report_uptimes(self, fractions: Dict[str, float]) -> None:
        """Feed uptime observations to the super-peer tier."""
        self.overlay.report_uptimes(fractions)

    # -- storekeeper agreements ---------------------------------------------------------

    def arrange_storekeepers(self, owner: str) -> List[str]:
        """Ask the super-peers for the best-uptime hosts and sign them up.

        This is the Supernova 'find the best places for replication'
        service in action.
        """
        keepers = self.overlay.best_replica_hosts(
            STOREKEEPERS_PER_USER, exclude=[owner])
        if len(keepers) < STOREKEEPERS_PER_USER:
            raise OverlayError("not enough tracked peers to pick keepers")
        self.agreements[owner] = keepers
        return keepers

    # -- stack layer hooks -------------------------------------------------------

    def _owner_encrypt(self, item: ContentItem) -> None:
        item.payload = self.acl.seal(item.author, item.payload)

    def _keeper_store(self, item: ContentItem) -> None:
        owner, item_id = item.author, item.meta["item_id"]
        kept = []
        for keeper in self.agreements[owner]:
            if self.network.rpc_issue(owner, keeper, "sn_store").ok:
                self._kept[keeper][(owner, item_id)] = item.payload
                kept.append(keeper)
        # publish the index entry so lookups find the keepers that acked
        key = f"sn/{owner}/{item_id}"
        self.overlay.publish(owner, key, b"")
        self.overlay.super_peers[self.overlay._index_super(key)].index[
            key] = kept

    def _keeper_fetch(self, item: ContentItem) -> None:
        owner, item_id = item.author, item.meta["item_id"]
        result = self.overlay.lookup(item.reader, f"sn/{owner}/{item_id}")
        for keeper in result.holders:
            if self.network.rpc_issue(item.reader, keeper, "sn_fetch").ok \
                    and (owner, item_id) in self._kept[keeper]:
                item.payload = self._kept[keeper][(owner, item_id)]
                return
        raise StorageError(
            f"no live storekeeper for {owner!r}/{item_id!r}")

    def _owner_decrypt(self, item: ContentItem) -> None:
        item.result = self.acl.unseal(item.author, item.payload, item.reader)

    # -- the content path ---------------------------------------------------------

    def store(self, owner: str, item_id: str, content: bytes) -> None:
        """Encrypt and hand copies to every storekeeper + the index."""
        if self.agreements.get(owner) is None:
            raise OverlayError(
                f"{owner!r} has no storekeeper agreement; call "
                "arrange_storekeepers first")
        self.stack.post(ContentItem(author=owner, payload=content,
                                    meta={"item_id": item_id}))

    def retrieve(self, reader: str, owner: str, item_id: str) -> bytes:
        """Lookup via super-peers, download from a live storekeeper.

        A reader the owner never :meth:`share_key`-ed with gets ciphertext
        it cannot open.
        """
        item = ContentItem(author=owner, reader=reader,
                           meta={"item_id": item_id})
        self.stack.read(item)
        return item.result
