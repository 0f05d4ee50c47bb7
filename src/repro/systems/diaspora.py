"""Diaspora: the federated DOSN with aspects (the paper's flagship example).

Section I: "There are many distributed online social networks out of which
Diaspora is one of the most popular because of its good privacy preserving
design."  Section II-B: server federation "distribute[s] users' data among
several servers ... none of them will have a complete global view."

Composition: :class:`~repro.overlay.federation.FederatedNetwork` provides
the pod substrate; on top we add Diaspora's signature feature — **aspects**
(per-audience contact groups: "family", "work", ...).  A post targets one
aspect; it is sealed for that aspect's members (one
:class:`~repro.acl.symmetric_acl.SymmetricKeyACL` group per aspect, rekeyed
on removal exactly as Section III-B prescribes) and federated only to their
home pods.
"""

from __future__ import annotations

import random as _random
from typing import Dict, Optional, Sequence, Tuple

from repro.acl import SymmetricKeyACL
from repro.exceptions import AccessDeniedError, OverlayError
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
        #: one group per aspect, named ``owner/aspect``; the owner is a member
        self.acl = SymmetricKeyACL(rng=_random.Random(seed))
        #: content id -> (owner, aspect)
        self._catalog: Dict[str, Tuple[str, str]] = {}
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
        return self.federation.register_user(user, pod)

    def create_aspect(self, owner: str, aspect: str,
                      members: Sequence[str]) -> None:
        """Create a contact group with its own key, shared with members."""
        self.acl.create_group(f"{owner}/{aspect}", [owner, *members])

    def add_to_aspect(self, owner: str, aspect: str, user: str) -> None:
        """Share the current aspect key with a new contact."""
        self.acl.add_member(f"{owner}/{aspect}", user)

    def remove_from_aspect(self, owner: str, aspect: str,
                           user: str) -> None:
        """Remove a contact: rotate the key (future posts excluded)."""
        if user == owner:
            raise AccessDeniedError(f"{owner!r} cannot leave their own aspect")
        self.acl.revoke_member(f"{owner}/{aspect}", user)

    # -- stack layer hooks -------------------------------------------------------

    def _aspect_encrypt(self, item: ContentItem) -> None:
        group = self.acl.groups.get(f"{item.author}/{item.meta['aspect']}")
        if group is None:
            raise OverlayError(
                f"{item.author!r} has no aspect {item.meta['aspect']!r}")
        item.recipients = tuple(sorted(group.members - {item.author}))
        item.payload = self.acl.seal(group.name, item.payload)

    def _federate(self, item: ContentItem) -> None:
        item.cid = f"dsp{self._sequence}"
        self._sequence += 1
        self.federation.post(item.author, item.cid, item.payload,
                             list(item.recipients))
        self._catalog[item.cid] = (item.author, item.meta["aspect"])

    def _pod_fetch(self, item: ContentItem) -> None:
        item.payload = self.federation.fetch(item.reader, item.cid)

    def _aspect_decrypt(self, item: ContentItem) -> None:
        item.result = self.acl.unseal(
            f"{item.author}/{item.meta['aspect']}", item.payload,
            item.reader).decode()

    # -- posting ------------------------------------------------------------------------

    def post(self, owner: str, aspect: str, text: str) -> str:
        """Encrypt for the aspect and federate to its members' pods only."""
        item = ContentItem(author=owner, payload=text.encode(),
                           meta={"aspect": aspect})
        self.stack.post(item)
        return item.cid

    def read(self, reader: str, content_id: str) -> str:
        """Fetch from the reader's pod and decrypt with the aspect key."""
        owner, aspect = self._catalog[content_id]
        item = ContentItem(author=owner, reader=reader, cid=content_id,
                           meta={"aspect": aspect})
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
