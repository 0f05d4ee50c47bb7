"""Hybrid encryption access control (Section III-F of the paper).

"A hybrid encryption is one which combines the convenience of a public-key
encryption with the high speed of a symmetric-key encryption.  In such
systems, access control management is performed in two phases: symmetric
encryption of data by the use of a symmetric key [and] applying public key
encryption under the public keys of all group's members to encrypt that
symmetric key."

:class:`HybridACL` makes the two phases explicit: the DEM is fast
symmetric AEAD; the KEM ("how the symmetric key reaches the audience") is
one CP-ABE wrap under the group policy — the DECENT / Cachet shape.  The
per-member public-key and the constant-size IBBE wraps are
:class:`~repro.acl.publickey_acl.PublicKeyACL` and
:class:`~repro.acl.ibbe_acl.IBBEACL`.

Experiment E2 uses this class to show that for large payloads hybrid
encryption converges to symmetric throughput while paying a fixed *header*
cost — the paper's core quantitative intuition.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.acl.base import AccessControlScheme, GroupState
from repro.crypto.abe import CPABE
from repro.crypto.symmetric import AuthenticatedCipher, random_key
from repro.exceptions import AccessDeniedError, DecryptionError


@dataclass
class _HybridRecord:
    """One item: opaque KEM header + symmetric payload."""

    kem_header: object
    payload: bytes


class HybridACL(AccessControlScheme):
    """Two-phase hybrid encryption: a CP-ABE key wrap over an AEAD payload."""

    scheme_name = "hybrid"
    table1_row = "Hybrid encryption"

    def __init__(self, *args, level: str = "TOY", **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._abe = CPABE(level)
        self._abe_pk, self._abe_msk = self._abe.setup(self.rng)
        self._abe_keys: Dict[tuple, object] = {}

    # -- hooks ----------------------------------------------------------------

    def _provision_user(self, user: str) -> None:
        self.meter.count("key_distribution")

    def _setup_group(self, group: GroupState) -> None:
        for member in sorted(group.members):
            self._issue_abe_key(group.name, member)

    def _issue_abe_key(self, group_name: str, user: str) -> None:
        self._abe_keys[(group_name, user)] = self._abe.keygen(
            self._abe_pk, self._abe_msk, [f"group:{group_name}"], self.rng)
        self.meter.count("key_distribution")

    def _on_member_added(self, group: GroupState, user: str) -> None:
        self._issue_abe_key(group.name, user)

    def _on_member_revoked(self, group: GroupState, user: str) -> None:
        self._abe_keys.pop((group.name, user), None)

    # -- the two phases ---------------------------------------------------------

    def _wrap_key(self, group: GroupState, content_key: bytes) -> object:
        """Phase 2: protect the symmetric key for the audience."""
        self.meter.count("pub_encrypt")
        header, blob = self._abe.encrypt_bytes(
            self._abe_pk, content_key, f"group:{group.name}", self.rng)
        return (header, blob)

    def _unwrap_key(self, group: GroupState, kem_header: object,
                    user: str) -> bytes:
        """Phase 2 inverse: recover the symmetric key with user credentials."""
        key = self._abe_keys.get((group.name, user))
        if key is None:
            raise AccessDeniedError(f"{user!r} holds no group key")
        self.meter.count("pub_decrypt")
        header, blob = kem_header
        try:
            return self._abe.decrypt_bytes(header, blob, key)
        except DecryptionError as exc:
            raise AccessDeniedError(f"{user!r} cannot unwrap the key: {exc}")

    def _encrypt_item(self, group: GroupState,
                      plaintext: bytes) -> _HybridRecord:
        content_key = random_key(32, self.rng)
        kem_header = self._wrap_key(group, content_key)
        self.meter.count("sym_encrypt")
        return _HybridRecord(
            kem_header=kem_header,
            payload=AuthenticatedCipher(content_key).encrypt(plaintext,
                                                             rng=self.rng))

    def _decrypt_item(self, group: GroupState, record: _HybridRecord,
                      user: str) -> bytes:
        content_key = self._unwrap_key(group, record.kem_header, user)
        self.meter.count("sym_decrypt")
        try:
            return AuthenticatedCipher(content_key).decrypt(record.payload)
        except DecryptionError:
            raise AccessDeniedError(f"{user!r} cannot decrypt the payload")
