"""Attribute-based access control (Section III-D of the paper).

The Persona / Cachet pattern: the data owner runs a CP-ABE attribute
authority, friends receive keys for attribute sets ("relative", "doctor",
...), and every item is encrypted under a policy string — "it is enough to
do a single encryption operation to construct a new group".

Group membership here is *implicit*: a group is the set of users whose
attributes satisfy the policy.  For the uniform E3 lifecycle we model a
named group as the dedicated attribute ``group:<name>#<epoch>``; revocation
then follows the paper exactly: "Usual revocation methods for ABE use
frequent re-keying.  To remove the accessibility of a revoked user, the
previous data which were accessible by him must be encrypted and stored
again" — the epoch is bumped, survivors get new keys, and the back
catalogue is re-encrypted under the new policy.  Experiment E3 measures
this as the expensive tail that offsets ABE's one-encryption group creation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple, Union

from repro.acl.base import AccessControlScheme, GroupState
from repro.crypto.abe import (ABECiphertext, ABESecretKey, CPABE, PolicyNode,
                              parse_policy)
from repro.exceptions import AccessDeniedError, DecryptionError, PolicyError


@dataclass
class _ABERecord:
    """One item: the ABE header and AEAD payload."""

    header: ABECiphertext
    blob: bytes


class ABEACL(AccessControlScheme):
    """CP-ABE based access control with epoch re-keying revocation."""

    scheme_name = "cp-abe"
    table1_row = "Attribute based encryption"

    def __init__(self, *args, level: str = "TOY", **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.abe = CPABE(level)
        self.pk, self._msk = self.abe.setup(self.rng)
        #: user -> accumulated attribute strings
        self._attributes: Dict[str, set] = {}
        #: user -> issued key (re-issued when attributes change)
        self._keys: Dict[str, ABESecretKey] = {}
        #: group -> revocation epoch
        self._epochs: Dict[str, int] = {}

    # -- attribute management (the Persona-style public API) -----------------

    def grant_attribute(self, user: str, attribute: str) -> None:
        """Give ``user`` an attribute and re-issue their key (a no-op when
        they already hold it)."""
        self.register_user(user)
        if attribute in self._attributes[user]:
            return
        self._attributes[user].add(attribute)
        self._reissue(user)

    def strip_attribute(self, user: str, attribute: str) -> None:
        """Remove an attribute from a user's key.

        Note this alone does NOT revoke access to already-published items —
        the old key may have been cached.  True revocation is the epoch
        bump in :meth:`_on_member_revoked`.
        """
        self._attributes.get(user, set()).discard(attribute)
        self._reissue(user)

    def publish_with_policy(self, group_name: str, item_id: str,
                            plaintext: bytes,
                            policy: Union[str, PolicyNode]) -> None:
        """Persona-style publish under an arbitrary policy expression."""
        self._group(group_name).items[item_id] = self.seal_with_policy(
            group_name, plaintext, policy)

    def seal_with_policy(self, group_name: str, plaintext: bytes,
                         policy: Union[str, PolicyNode]) -> _ABERecord:
        """:meth:`seal` under an arbitrary policy expression."""
        self._group(group_name)
        self.meter.count("pub_encrypt")
        header, blob = self.abe.encrypt_bytes(self.pk, plaintext, policy,
                                              self.rng)
        return _ABERecord(header=header, blob=blob)

    def _reissue(self, user: str) -> None:
        attrs = sorted(self._attributes[user])
        if attrs:
            self._keys[user] = self.abe.keygen(self.pk, self._msk, attrs,
                                               self.rng)
        else:
            self._keys.pop(user, None)
        self.meter.count("key_distribution")

    # -- group-attribute helpers ----------------------------------------------

    def _group_attribute(self, group_name: str) -> str:
        return f"group:{group_name}#{self._epochs[group_name]}"

    # -- hooks ------------------------------------------------------------------

    def _provision_user(self, user: str) -> None:
        self._attributes[user] = set()

    def _setup_group(self, group: GroupState) -> None:
        self._epochs[group.name] = 0
        attribute = self._group_attribute(group.name)
        for member in sorted(group.members):
            self._attributes[member].add(attribute)
            self._reissue(member)

    def _on_member_added(self, group: GroupState, user: str) -> None:
        self._attributes[user].add(self._group_attribute(group.name))
        self._reissue(user)

    def _on_member_revoked(self, group: GroupState, user: str) -> None:
        old_attribute = self._group_attribute(group.name)
        self._attributes[user].discard(old_attribute)
        self._reissue(user)
        # Epoch bump: fresh attribute for survivors...
        self._epochs[group.name] += 1
        new_attribute = self._group_attribute(group.name)
        for member in sorted(group.members):
            self._attributes[member].discard(old_attribute)
            self._attributes[member].add(new_attribute)
            self._reissue(member)
        # ...and the paper's mandated re-encryption of prior data.
        owner_key = self.abe.keygen(self.pk, self._msk, [old_attribute],
                                    self.rng)
        for item_id, record in list(group.items.items()):
            try:
                plaintext = self.abe.decrypt_bytes(record.header, record.blob,
                                                   owner_key)
            except DecryptionError:
                continue  # item was published under a custom policy
            header, blob = self.abe.encrypt_bytes(self.pk, plaintext,
                                                  new_attribute, self.rng)
            group.items[item_id] = _ABERecord(header=header, blob=blob)
            self.meter.count("reencryption")
            self.meter.count("pub_encrypt")

    def _encrypt_item(self, group: GroupState, plaintext: bytes) -> _ABERecord:
        self.meter.count("pub_encrypt")
        header, blob = self.abe.encrypt_bytes(
            self.pk, plaintext, self._group_attribute(group.name), self.rng)
        self.meter.count("header_bytes",
                         32 * (2 + 2 * len(header.leaves)))
        return _ABERecord(header=header, blob=blob)

    def _decrypt_item(self, group: GroupState, record: _ABERecord,
                      user: str) -> bytes:
        key = self._keys.get(user)
        if key is None:
            raise AccessDeniedError(f"{user!r} holds no attribute key")
        self.meter.count("pub_decrypt")
        try:
            return self.abe.decrypt_bytes(record.header, record.blob, key)
        except DecryptionError as exc:
            raise AccessDeniedError(
                f"{user!r}'s attributes do not satisfy the policy: {exc}")
