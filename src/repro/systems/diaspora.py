"""Diaspora: the federated DOSN with aspects (the paper's flagship example).

Section I: "There are many distributed online social networks out of which
Diaspora is one of the most popular because of its good privacy preserving
design."  Section II-B: server federation "distribute[s] users' data among
several servers ... none of them will have a complete global view."

Composition: :class:`~repro.overlay.federation.FederatedNetwork` provides
the pod substrate; on top we add Diaspora's signature feature — **aspects**
(per-audience contact groups: "family", "work", ...).  A post targets one
aspect; it is encrypted for that aspect's members (symmetric per-aspect
keys, rotated on removal exactly as Section III-B prescribes) and federated
only to their home pods.
"""

from __future__ import annotations

import random as _random
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.crypto.symmetric import StreamCipher, random_key
from repro.exceptions import AccessDeniedError, DecryptionError, OverlayError
from repro.fabric import Fabric
from repro.overlay.federation import FederatedNetwork
from repro.stack import (AclLayer, ContentItem, LayerSpec, PlacementLayer,
                         ProtectionStack, SystemSpec, register_system)

DIASPORA_SPEC = register_system(SystemSpec(
    name="diaspora",
    citation="the paper's flagship federation example",
    overlay="server federation (pods); no pod holds a global view",
    layers=(
        LayerSpec("acl", "per-aspect symmetric keys",
                  table1_rows=("Symmetric key encryption",),
                  detail="one key per contact group, rotated on removal "
                         "(Section III-B)"),
        LayerSpec("placement", "selective pod federation",
                  detail="ciphertext federated only to the aspect "
                         "members' home pods"),
    )))


#: federated pod servers in one deployment
PODS = 4


class DiasporaNetwork:
    """A Diaspora deployment: pods + aspects + per-aspect encryption."""

    def __init__(self, seed: int = 0) -> None:
        self.fabric = Fabric.create(seed=seed)
        self.sim = self.fabric.sim
        self.network = self.fabric.network
        self.federation = FederatedNetwork(
            self.network, [f"pod{i}" for i in range(PODS)])
        self.rng = _random.Random(seed)
        #: (owner, aspect) -> (epoch, key)
        self._aspect_keys: Dict[Tuple[str, str], Tuple[int, bytes]] = {}
        #: (owner, aspect) -> member set
        self.aspects: Dict[Tuple[str, str], Set[str]] = {}
        #: user -> {(owner, aspect, epoch): key} — keys received from owners
        self._keyrings: Dict[str, Dict[Tuple[str, str, int], bytes]] = {}
        #: content id -> (owner, aspect, epoch)
        self._catalog: Dict[str, Tuple[str, str, int]] = {}
        self._sequence = 0
        self.stack = ProtectionStack([
            AclLayer(post=self._aspect_encrypt, read=self._aspect_decrypt,
                     spec=DIASPORA_SPEC.layers[0]),
            PlacementLayer(post=self._federate, read=self._pod_fetch,
                           spec=DIASPORA_SPEC.layers[1]),
        ], spec=DIASPORA_SPEC)

    # -- membership -------------------------------------------------------------------

    def register(self, user: str, pod: Optional[str] = None) -> str:
        """Join a pod (hash-balanced by default)."""
        self._keyrings[user] = {}
        return self.federation.register_user(user, pod)

    def create_aspect(self, owner: str, aspect: str,
                      members: Sequence[str]) -> None:
        """Create a contact group with its own key, shared with members."""
        key = random_key(32, self.rng)
        self._aspect_keys[(owner, aspect)] = (0, key)
        self.aspects[(owner, aspect)] = set(members)
        self._keyrings.setdefault(owner, {})[(owner, aspect, 0)] = key
        for member in members:
            self._keyrings[member][(owner, aspect, 0)] = key

    def add_to_aspect(self, owner: str, aspect: str, user: str) -> None:
        """Share the current aspect key with a new contact."""
        epoch, key = self._aspect_keys[(owner, aspect)]
        self.aspects[(owner, aspect)].add(user)
        self._keyrings[user][(owner, aspect, epoch)] = key

    def remove_from_aspect(self, owner: str, aspect: str,
                           user: str) -> None:
        """Remove a contact: rotate the key (future posts excluded)."""
        members = self.aspects.get((owner, aspect))
        if members is None or user not in members:
            raise AccessDeniedError(
                f"{user!r} is not in {owner!r}'s aspect {aspect!r}")
        members.discard(user)
        epoch, _ = self._aspect_keys[(owner, aspect)]
        new_key = random_key(32, self.rng)
        self._aspect_keys[(owner, aspect)] = (epoch + 1, new_key)
        self._keyrings[owner][(owner, aspect, epoch + 1)] = new_key
        for member in members:
            self._keyrings[member][(owner, aspect, epoch + 1)] = new_key

    # -- stack layer hooks -------------------------------------------------------

    def _aspect_encrypt(self, item: ContentItem) -> None:
        aspect = item.meta["aspect"]
        entry = self._aspect_keys.get((item.author, aspect))
        if entry is None:
            raise OverlayError(f"{item.author!r} has no aspect {aspect!r}")
        epoch, key = entry
        item.recipients = tuple(sorted(self.aspects[(item.author, aspect)]))
        item.meta["epoch"] = epoch
        item.payload = StreamCipher(key).encrypt(item.payload, self.rng)

    def _federate(self, item: ContentItem) -> None:
        item.cid = f"dsp{self._sequence}"
        self._sequence += 1
        self.federation.post(item.author, item.cid, item.payload,
                             list(item.recipients))
        self._catalog[item.cid] = (item.author, item.meta["aspect"],
                                   item.meta["epoch"])

    def _pod_fetch(self, item: ContentItem) -> None:
        item.payload = self.federation.fetch(item.reader, item.cid)

    def _aspect_decrypt(self, item: ContentItem) -> None:
        aspect, epoch = item.meta["aspect"], item.meta["epoch"]
        key = self._keyrings.get(item.reader, {}).get(
            (item.author, aspect, epoch))
        if key is None:
            raise AccessDeniedError(
                f"{item.reader!r} holds no key for {item.author!r}/"
                f"{aspect!r} epoch {epoch}")
        try:
            item.result = StreamCipher(key).decrypt(item.payload).decode()
        except DecryptionError:
            raise AccessDeniedError(
                f"{item.reader!r}'s aspect key does not open {item.cid!r}")

    # -- posting ------------------------------------------------------------------------

    def post(self, owner: str, aspect: str, text: str) -> str:
        """Encrypt for the aspect and federate to its members' pods only."""
        item = ContentItem(author=owner, payload=text.encode(),
                           meta={"aspect": aspect})
        self.stack.post(item)
        return item.cid

    def read(self, reader: str, content_id: str) -> str:
        """Fetch from the reader's pod and decrypt with the aspect key."""
        owner, aspect, epoch = self._catalog[content_id]
        item = ContentItem(author=owner, reader=reader, cid=content_id,
                           meta={"aspect": aspect, "epoch": epoch})
        self.stack.read(item)
        return item.result

    # -- the federation privacy story -------------------------------------------------------

    def pod_views(self) -> Dict[str, Dict[str, object]]:
        """Per-pod observer views (users, ciphertext ids, edges)."""
        return {name: self.federation.server_view(name)
                for name in self.federation.servers}

    def worst_pod_content_fraction(self) -> float:
        """The worst pod's share of stored (ciphertext) objects."""
        total = len(self._catalog)
        if total == 0:
            return 0.0
        return max(len(server.content)
                   for server in self.federation.servers.values()) / total
