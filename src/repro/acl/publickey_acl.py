"""Public-key access control (Section III-C of the paper).

"In order to manage users' data accessibility, data should be encrypted
under the public keys of all group's members and then sent to them.  When a
user leaves the group, his public key will be deleted from the list of group
members."  This is the flyByNight / PeerSoN pattern.

Concretely (as those systems do) each item gets a fresh content key that is
ElGamal-wrapped once per member — so publish costs O(members) asymmetric
operations and the header grows linearly with the group, which is exactly
the curve experiment E3 contrasts with IBBE's constant-size headers.
Revocation is cheap for *future* items (drop the key from the list) but, as
with the symmetric scheme, the paper's caveat applies to the back catalogue.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from repro.acl.base import AccessControlScheme, GroupState
from repro.crypto import elgamal
from repro.crypto.symmetric import AuthenticatedCipher, random_key
from repro.exceptions import AccessDeniedError, DecryptionError


@dataclass
class _PKRecord:
    """One item: per-member wrapped content keys + the AEAD payload."""

    wrapped_keys: Dict[str, bytes]
    payload: bytes


class PublicKeyACL(AccessControlScheme):
    """Per-member public-key wrapping of per-item content keys."""

    scheme_name = "public-key"
    table1_row = "Public key encryption"

    def __init__(self, *args, level: str = "TOY", **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._level = level
        self._private_keys: Dict[str, elgamal.ElGamalPrivateKey] = {}
        self._public_keys: Dict[str, elgamal.ElGamalPublicKey] = {}
        #: content keys retained by the owner for join-time re-wrapping
        self._content_keys: Dict[tuple, bytes] = {}

    # -- hooks ----------------------------------------------------------------

    def _provision_user(self, user: str) -> None:
        priv = elgamal.generate_keypair(self._level, rng=self.rng)
        self._private_keys[user] = priv
        self._public_keys[user] = priv.public_key
        self.meter.count("keygen")

    def _setup_group(self, group: GroupState) -> None:
        pass  # the member list *is* the group state

    def _on_member_added(self, group: GroupState, user: str) -> None:
        # Newcomers get access to history: wrap each item's content key.
        for item_id, record in group.items.items():
            content_key = self._content_keys[(group.name, item_id)]
            record.wrapped_keys[user] = elgamal.encrypt_bytes(
                self._public_keys[user], content_key, rng=self.rng)
            self.meter.count("pub_encrypt")

    def _on_member_revoked(self, group: GroupState, user: str) -> None:
        # "His public key will be deleted from the list" — future items
        # simply exclude the revoked member; history keeps its wraps
        # (the revoked user could have cached plaintexts anyway).
        pass

    def _encrypt_item(self, group: GroupState, plaintext: bytes) -> _PKRecord:
        return self._seal(group, plaintext)[1]

    def _seal(self, group: GroupState,
              plaintext: bytes) -> Tuple[bytes, _PKRecord]:
        """Wrap a fresh content key per member and seal ``plaintext``;
        returns the content key with the record."""
        content_key = random_key(32, self.rng)
        wrapped = {}
        for member in sorted(group.members):
            wrapped[member] = elgamal.encrypt_bytes(
                self._public_keys[member], content_key, rng=self.rng)
            self.meter.count("pub_encrypt")
        self.meter.count("sym_encrypt")
        self.meter.count("header_bytes",
                         sum(len(w) for w in wrapped.values()))
        return content_key, _PKRecord(
            wrapped_keys=wrapped,
            payload=AuthenticatedCipher(content_key).encrypt(
                plaintext, rng=self.rng))

    def _decrypt_item(self, group: GroupState, record: _PKRecord,
                      user: str) -> bytes:
        wrap = record.wrapped_keys.get(user)
        if wrap is None:
            raise AccessDeniedError(
                f"no wrapped key for {user!r} on this item")
        priv = self._private_keys.get(user)
        if priv is None:
            raise AccessDeniedError(f"{user!r} has no keypair")
        self.meter.count("pub_decrypt")
        try:
            content_key = elgamal.decrypt_bytes(priv, wrap)
            self.meter.count("sym_decrypt")
            return AuthenticatedCipher(content_key).decrypt(record.payload)
        except DecryptionError:
            raise AccessDeniedError(f"{user!r} cannot decrypt this item")

    # -- owner-side bookkeeping ----------------------------------------------

    def publish(self, group_name: str, item_id: str, plaintext: bytes) -> None:
        """Publish, remembering the content key for later join re-wraps."""
        group = self._group(group_name)
        content_key, group.items[item_id] = self._seal(group, plaintext)
        self._content_keys[(group.name, item_id)] = content_key
