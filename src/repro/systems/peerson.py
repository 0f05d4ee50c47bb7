"""PeerSoN: P2P social networking over a DHT (Buchegger et al.).

As the paper describes it: PeerSoN "utilize[s] structured control overlay"
(a DHT lookup service), uses **public key encryption** for content
(Section III-C), digital signatures for integrity (Section IV), and keys
"distributed out-of-band like physical meeting" (Section IV-A).

Composition: :class:`~repro.overlay.chord.ChordRing` for lookup/storage +
per-item public-key wrapped content keys (a
:class:`~repro.acl.publickey_acl.PublicKeyACL` group per author: the author
and their friends) + asynchronous DHT mailboxes (a one-member group
``mailbox/<user>``) so two peers who are never online simultaneously can
still exchange messages (PeerSoN's headline feature).
"""

from __future__ import annotations

import random as _random
from typing import Dict, List

from repro.acl import PublicKeyACL
from repro.exceptions import StorageError
from repro.fabric import Fabric
from repro.overlay.chord import ChordRing
from repro.stack import (AclLayer, ContentItem, LayerSpec, PlacementLayer,
                         ProtectionStack, SystemSpec, register_system)

PEERSON_SPEC = register_system(SystemSpec(
    name="peerson",
    citation="Buchegger et al.",
    overlay="structured control overlay (Chord DHT lookup + storage)",
    layers=(
        LayerSpec("acl", "public-key wrapped content keys",
                  table1_rows=("Public key encryption",),
                  detail="per-item content key, ElGamal-wrapped for each "
                         "friend; keys exchanged out of band "
                         "(Section III-C / IV-A)"),
        LayerSpec("placement", "Chord DHT put",
                  detail="replicated DHT storage; mailboxes enable "
                         "asynchronous delivery"),
    )))


#: replicas the DHT keeps of each item
REPLICATION = 2


class PeersonNetwork:
    """A PeerSoN deployment: DHT + public-key encryption + DHT mailboxes."""

    def __init__(self, seed: int = 0, level: str = "TOY") -> None:
        self.fabric = Fabric.create(seed=seed)
        self.sim = self.fabric.sim
        self.network = self.fabric.network
        self.ring = ChordRing(self.fabric, replication=REPLICATION)
        #: a group per author (author + friends), one per mailbox
        self.acl = PublicKeyACL(rng=_random.Random(seed), level=level)
        self._mailbox_counters: Dict[str, int] = {}
        self._built = False
        self.stack = ProtectionStack([
            AclLayer(post=self._wrap_for_friends, read=self._unwrap,
                     spec=PEERSON_SPEC.layers[0]),
            PlacementLayer(post=self._dht_put, read=self._dht_get,
                           spec=PEERSON_SPEC.layers[1]),
        ], spec=PEERSON_SPEC, tracer=self.fabric.tracer,
            metrics=self.fabric.metrics)

    # -- membership --------------------------------------------------------------

    def register(self, name: str) -> None:
        """Join: create a keypair and the author and mailbox groups, join
        the DHT.

        A name may not contain ``/``: ``mailbox/<name>`` names a mailbox
        group and :meth:`read` takes the author from a DHT key's second
        ``/``-separated field.
        """
        if "/" in name:
            raise ValueError(f"a PeerSoN name may not contain '/': {name!r}")
        self.acl.create_group(name, [name])
        self.acl.create_group(f"mailbox/{name}", [name])
        self.ring.add_node(name)
        self._built = False

    def befriend(self, a: str, b: str) -> None:
        """The 'physical meeting': both sides learn authenticated keys."""
        self.acl.add_member(a, b)
        self.acl.add_member(b, a)

    def _ensure_built(self) -> None:
        if not self._built:
            self.ring.build()
            self._built = True

    # -- stack layer hooks -------------------------------------------------------

    def _wrap_for_friends(self, item: ContentItem) -> None:
        item.payload = self.acl.seal(item.author, item.payload)

    def _dht_put(self, item: ContentItem) -> None:
        item.cid = f"peerson/{item.author}/{item.meta['item_id']}"
        self.ring.put(item.author, item.cid, item.payload)

    def _dht_get(self, item: ContentItem) -> None:
        item.payload, _ = self.ring.get(item.reader, item.cid)

    def _unwrap(self, item: ContentItem) -> None:
        item.result = self.acl.unseal(item.author, item.payload, item.reader)

    # -- content: public-key wrapped, DHT stored -----------------------------------

    def post(self, author: str, item_id: str, content: bytes) -> str:
        """Encrypt for the author's friends and store under a DHT key."""
        self._ensure_built()
        item = ContentItem(author=author, payload=content,
                           meta={"item_id": item_id})
        self.stack.post(item)
        return item.cid

    def read(self, reader: str, dht_key: str) -> bytes:
        """Fetch from the DHT and unwrap with the reader's private key."""
        self._ensure_built()
        _, author, _ = dht_key.split("/", 2)
        item = ContentItem(author=author, reader=reader, cid=dht_key)
        self.stack.read(item)
        return item.result

    # -- asynchronous messaging through the DHT -------------------------------------

    def send_async(self, sender: str, recipient: str,
                   message: bytes) -> str:
        """Drop an encrypted message into the recipient's DHT mailbox.

        Works while the recipient is offline — the PeerSoN scenario of two
        phones never awake at the same time.
        """
        self._ensure_built()
        record = self.acl.seal(f"mailbox/{recipient}", message)
        index = self._mailbox_counters.get(recipient, 0)
        self._mailbox_counters[recipient] = index + 1
        dht_key = f"peerson/mailbox/{recipient}/{index}"
        self.ring.put(sender, dht_key, record)
        return dht_key

    def fetch_mailbox(self, owner: str) -> List[bytes]:
        """Drain every pending mailbox entry (decrypting locally)."""
        self._ensure_built()
        messages: List[bytes] = []
        for index in range(self._mailbox_counters.get(owner, 0)):
            dht_key = f"peerson/mailbox/{owner}/{index}"
            try:
                record, _ = self.ring.get(owner, dht_key)
            except StorageError:
                continue
            messages.append(self.acl.unseal(f"mailbox/{owner}", record,
                                            owner))
        return messages

    def go_offline(self, name: str) -> None:
        """Take a peer down (its DHT node too)."""
        self.ring.nodes[name].online = False

    def go_online(self, name: str) -> None:
        """Bring a peer back."""
        self.ring.nodes[name].online = True
