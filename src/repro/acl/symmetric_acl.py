"""Symmetric-key access control (Section III-B of the paper).

"In terms of access control management in the symmetric key encryption
systems, we should encrypt our data by the use of a symmetric key and then
share it with the users who we want to be able to decrypt our data.  For
each new group, a distinct key should be defined.  Adding a user to the
existing group means sharing the group key with that user.  For the
revocation, we need to create a new key and re-encrypt the whole data."

That last sentence is the scheme's defining cost and what experiment E3
measures: revocation here is O(items) re-encryptions + O(members) key
redistributions, the worst of all six schemes — but publish/read are the
cheapest.  The paper's caveat is also modelled: "if someone already
decrypted the data and kept a copy, we cannot revoke that" — see
``read_with_cached_key`` in the tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.acl.base import AccessControlScheme, GroupState
from repro.crypto.symmetric import AuthenticatedCipher, random_key
from repro.exceptions import AccessDeniedError, DecryptionError


@dataclass
class _SymRecord:
    """One stored item: ciphertext plus the key epoch that protects it."""

    epoch: int
    blob: bytes


class SymmetricKeyACL(AccessControlScheme):
    """Per-group shared symmetric keys with rekey-and-re-encrypt revocation."""

    scheme_name = "symmetric"
    table1_row = "Symmetric key encryption"

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        #: (group, epoch) -> group key held by the owner
        self._group_keys: Dict[tuple, bytes] = {}
        #: group -> current key epoch
        self._epochs: Dict[str, int] = {}
        #: user -> {(group, epoch): key} — each member's private keyring
        self._keyrings: Dict[str, Dict[tuple, bytes]] = {}

    # -- hooks ----------------------------------------------------------------

    def _provision_user(self, user: str) -> None:
        self._keyrings[user] = {}

    def _setup_group(self, group: GroupState) -> None:
        self._epochs[group.name] = 0
        key = random_key(32, self.rng)
        self._group_keys[(group.name, 0)] = key
        for member in sorted(group.members):
            self._distribute(group.name, 0, member, key)

    def _distribute(self, group_name: str, epoch: int, user: str,
                    key: bytes) -> None:
        """Hand the (group, epoch) key to one member."""
        self._keyrings[user][(group_name, epoch)] = key
        self.meter.count("key_distribution")

    def _on_member_added(self, group: GroupState, user: str) -> None:
        epoch = self._epochs[group.name]
        self._distribute(group.name, epoch, user,
                         self._group_keys[(group.name, epoch)])

    def _on_member_revoked(self, group: GroupState, user: str) -> None:
        # New epoch, new key, redistribute, and re-encrypt the back catalogue.
        epoch = self._epochs[group.name] + 1
        self._epochs[group.name] = epoch
        new_key = random_key(32, self.rng)
        self._group_keys[(group.name, epoch)] = new_key
        for member in sorted(group.members):
            self._distribute(group.name, epoch, member, new_key)
        new_cipher = AuthenticatedCipher(new_key)
        for item_id, record in list(group.items.items()):
            old_key = self._group_keys[(group.name, record.epoch)]
            plaintext = AuthenticatedCipher(old_key).decrypt(record.blob)
            group.items[item_id] = _SymRecord(
                epoch=epoch, blob=new_cipher.encrypt(plaintext, rng=self.rng))
            self.meter.count("reencryption")
            self.meter.count("sym_encrypt")

    def _encrypt_item(self, group: GroupState, plaintext: bytes) -> _SymRecord:
        epoch = self._epochs[group.name]
        key = self._group_keys[(group.name, epoch)]
        self.meter.count("sym_encrypt")
        blob = AuthenticatedCipher(key).encrypt(plaintext, rng=self.rng)
        self.meter.count("header_bytes", 0)  # no per-member header
        return _SymRecord(epoch=epoch, blob=blob)

    def _decrypt_item(self, group: GroupState, record: _SymRecord,
                      user: str) -> bytes:
        keyring = self._keyrings.get(user, {})
        key = keyring.get((group.name, record.epoch))
        if key is None:
            raise AccessDeniedError(
                f"{user!r} holds no key for {group.name!r} "
                f"epoch {record.epoch}")
        self.meter.count("sym_decrypt")
        try:
            return AuthenticatedCipher(key).decrypt(record.blob)
        except DecryptionError:
            raise AccessDeniedError(f"{user!r} cannot decrypt this item")

    # -- the paper's revocation caveat ---------------------------------------

    def leaked_key(self, group_name: str, epoch: int) -> bytes:
        """The group key of a past epoch, as a revoked member would retain it.

        Models "if someone already decrypted the data and kept a copy, we
        cannot revoke that": items from epochs before the revocation remain
        readable to anyone who cached this key (only the *re-encrypted*
        copies become unreadable).
        """
        return self._group_keys[(group_name, epoch)]
