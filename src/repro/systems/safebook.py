"""Safebook: privacy by leveraging real-life trust (Cutillo et al.).

As the paper describes it: Safebook builds "a concentric circle of friends
around each user, which makes it possible to communicate with the user
without revealing identity or even IP address" (Section V-B), uses a
structured overlay for lookup (Section II-B), and relies on digital
signatures (Section IV).

Composition: each user's **matryoshka** (from
:mod:`repro.search.friend_routing`) provides anonymous request routing; the
innermost shell doubles as the user's **mirrors** — friends who hold a
signed, encrypted replica of the profile and serve it while the owner is
offline.  The result is the Safebook trade: availability and anonymity both
come from real-life friends, so both inherit the friends' uptime.
"""

from __future__ import annotations

import random as _random
from typing import Dict, Tuple

import networkx as nx

from repro.acl import SymmetricKeyACL
from repro.dosn.identity import Identity, KeyRegistry, create_identity
from repro.exceptions import SearchError, StorageError
from repro.integrity.envelope import MessageEnvelope, open_envelope, seal
from repro.search.friend_routing import Matryoshka, RoutedRequest
from repro.stack import (AclLayer, ContentItem, IntegrityLayer, LayerSpec,
                         PlacementLayer, ProtectionStack, SystemSpec,
                         register_system)

SAFEBOOK_SPEC = register_system(SystemSpec(
    name="safebook",
    citation="Cutillo et al.",
    overlay="concentric matryoshka shells over real-life trust + "
            "structured lookup",
    layers=(
        LayerSpec("integrity", "signed message envelope",
                  table1_rows=("Integrity of data owner and data content",),
                  detail="profile sealed under the owner's signature "
                         "(Section IV)"),
        LayerSpec("acl", "friend-group stream cipher",
                  table1_rows=("Symmetric key encryption",),
                  detail="one group key per owner, held by friends"),
        LayerSpec("placement", "shell-1 mirror replication",
                  table1_rows=("Privacy of searcher",),
                  detail="innermost-shell friends mirror the profile and "
                         "answer anonymously routed requests "
                         "(Section V-B)"),
    )))


#: matryoshka shells around each core
DEPTH = 3


class SafebookNetwork:
    """A Safebook deployment over a social graph."""

    def __init__(self, graph: nx.Graph, seed: int = 0,
                 level: str = "TOY") -> None:
        self.graph = graph
        self.level = level
        self.rng = _random.Random(seed)
        self.registry = KeyRegistry()
        self.identities: Dict[str, Identity] = {}
        self.online: Dict[str, bool] = {}
        #: one group per owner: the owner plus their graph neighbours
        self.acl = SymmetricKeyACL(rng=self.rng)
        #: owner -> mirror -> encrypted signed profile replica
        self._mirrors: Dict[str, Dict[str, object]] = {}
        self._shells: Dict[str, Matryoshka] = {}
        for node in graph.nodes:
            name = str(node)
            identity = create_identity(
                name, level, _random.Random(f"{name}/{seed}"))
            self.registry.register(identity)
            self.identities[name] = identity
            self.online[name] = True
            self.acl.create_group(
                name, [name, *(str(n) for n in graph.neighbors(node))])
        self.stack = ProtectionStack([
            IntegrityLayer(post=self._seal_profile,
                           read=self._open_envelope,
                           spec=SAFEBOOK_SPEC.layers[0]),
            AclLayer(post=self._group_encrypt, read=self._group_decrypt,
                     spec=SAFEBOOK_SPEC.layers[1]),
            PlacementLayer(post=self._mirror_out, read=self._mirror_fetch,
                           spec=SAFEBOOK_SPEC.layers[2]),
        ], spec=SAFEBOOK_SPEC)

    def _matryoshka(self, core: str) -> Matryoshka:
        shells = self._shells.get(core)
        if shells is None:
            shells = Matryoshka(self.graph, core, depth=DEPTH)
            self._shells[core] = shells
        return shells

    # -- stack layer hooks -------------------------------------------------------

    def _seal_profile(self, item: ContentItem) -> None:
        envelope = seal(self.identities[item.author].signer, item.author,
                        item.payload, issued_at=item.meta.get("now", 0.0),
                        rng=self.rng)
        import json
        item.payload = json.dumps({
            "sender": envelope.sender, "body": envelope.body.hex(),
            "issued_at": envelope.issued_at,
            "sequence": envelope.sequence,
            "signature": list(envelope.signature),
        }).encode()

    def _group_encrypt(self, item: ContentItem) -> None:
        item.payload = self.acl.seal(item.author, item.payload)

    def _mirror_out(self, item: ContentItem) -> None:
        mirrors = self._matryoshka(item.author).shells[0]
        self._mirrors[item.author] = {mirror: item.payload
                                      for mirror in mirrors}
        item.meta["mirrors"] = len(mirrors)

    def _mirror_fetch(self, item: ContentItem) -> None:
        owner = item.author
        shells = self._matryoshka(owner)
        request = shells.route_request(item.reader, self.rng)
        for relay in request.path:
            if not self.online.get(relay, False):
                raise SearchError(
                    f"relay {relay!r} on the shell path is offline")
        mirror = request.path[-1]  # innermost shell member
        blob = self._mirrors.get(owner, {}).get(mirror)
        if blob is None:
            if self.online.get(owner, False):
                blob = next(iter(self._mirrors.get(owner, {}).values()),
                            None)
            if blob is None:
                raise StorageError(
                    f"no online mirror holds {owner!r}'s profile")
        item.meta["request"] = request
        item.meta["mirror"] = mirror
        item.payload = blob

    def _group_decrypt(self, item: ContentItem) -> None:
        item.payload = self.acl.unseal(item.author, item.payload, item.reader)

    def _open_envelope(self, item: ContentItem) -> None:
        import json
        data = json.loads(item.payload.decode())
        envelope = MessageEnvelope(
            sender=data["sender"], recipient=None,
            body=bytes.fromhex(data["body"]),
            issued_at=data["issued_at"], expires_at=None,
            sequence=data["sequence"],
            signature=tuple(data["signature"]))
        item.result = open_envelope(
            envelope, self.registry.get(item.author).verify_key)

    # -- profile publication with mirroring -----------------------------------------

    def publish_profile(self, owner: str, profile: bytes,
                        now: float = 0.0) -> int:
        """Sign + encrypt the profile and replicate to shell-1 mirrors.

        Returns the number of mirrors provisioned.  The envelope signature
        gives owner/content integrity (a mirror cannot alter the profile
        undetected); the group key restricts readability to friends.
        """
        item = ContentItem(author=owner, payload=profile,
                           meta={"now": now})
        self.stack.post(item)
        return item.meta["mirrors"]

    # -- anonymous retrieval through the shells ---------------------------------------

    def retrieve_profile(self, requester: str, owner: str
                         ) -> Tuple[bytes, RoutedRequest, str]:
        """Fetch ``owner``'s profile anonymously via their matryoshka.

        The request enters at a random outermost-shell node and is relayed
        inward; the innermost relay (a mirror) serves the replica — so the
        profile is retrievable *and* the owner never learns who asked,
        even while offline.  Raises :class:`StorageError` when neither the
        owner nor any mirror is online.
        """
        item = ContentItem(author=owner, reader=requester)
        self.stack.read(item)
        return item.result, item.meta["request"], item.meta["mirror"]

    def availability(self, owner: str, probes: int = 50,
                     offline_probability: float = 0.5,
                     seed: int = 0) -> float:
        """Fraction of random up/down patterns under which the profile is
        servable by owner-or-mirrors — friend-powered availability."""
        rng = _random.Random(seed)
        mirrors = list(self._mirrors.get(owner, {}))
        hits = 0
        for _ in range(probes):
            owner_up = rng.random() > offline_probability
            any_mirror_up = any(rng.random() > offline_probability
                                for _ in mirrors)
            hits += owner_up or any_mirror_up
        return hits / probes
