"""Identity-based broadcast access control (Section III-E of the paper).

"Considering the OSNs, the username or e-mail addresses of the members can
be used as their public key for sending encrypted messages.  From this point
of view, IBBE is more flexible than ABE, since it addresses individual
recipients instead of the whole group.  Removing a recipient from the list
would then have no extra cost."

Every published item is IBBE-encrypted to the *current* member list; headers
are constant-size (two group elements) regardless of audience — the property
experiment E3 contrasts with the linear headers of :class:`PublicKeyACL`.
Revocation is exactly a list edit: zero cryptographic work, as the paper
claims (history remains under the old audience, same caveat as everywhere).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.acl.base import AccessControlScheme, GroupState
from repro.crypto.ibbe import IBBE, IBBEHeader, IBBEUserKey
from repro.exceptions import AccessDeniedError, DecryptionError


@dataclass
class _IBBERecord:
    """One item: constant-size IBBE header + AEAD payload."""

    header: IBBEHeader
    blob: bytes


class IBBEACL(AccessControlScheme):
    """Delerablée-IBBE based access control with free revocation."""

    scheme_name = "ibbe"
    table1_row = "Identity based broadcast encryption"

    def __init__(self, *args, level: str = "TOY", max_group_size: int = 64,
                 **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.ibbe = IBBE(level)
        self.pk, self._msk = self.ibbe.setup(max_group_size, self.rng)
        self._user_keys: Dict[str, IBBEUserKey] = {}

    # -- hooks ----------------------------------------------------------------

    def _provision_user(self, user: str) -> None:
        # The PKG extracts once per identity; users never exchange keys.
        self._user_keys[user] = self._msk.extract(user)
        self.meter.count("key_distribution")

    def _setup_group(self, group: GroupState) -> None:
        pass  # the identity list *is* the group

    def _on_member_added(self, group: GroupState, user: str) -> None:
        pass  # future encryptions simply include the identity

    def _on_member_revoked(self, group: GroupState, user: str) -> None:
        pass  # "no extra cost": future encryptions exclude the identity

    def _encrypt_item(self, group: GroupState, plaintext: bytes) -> _IBBERecord:
        recipients = sorted(group.members)
        self.meter.count("pub_encrypt")
        header, blob = self.ibbe.encrypt_bytes(self.pk, recipients, plaintext,
                                               self.rng)
        # Constant-size header: C1 + C2, independent of |recipients|.
        self.meter.count("header_bytes", len(header.c1.to_bytes())
                         + len(header.c2.to_bytes()))
        return _IBBERecord(header=header, blob=blob)

    def _decrypt_item(self, group: GroupState, record: _IBBERecord,
                      user: str) -> bytes:
        key = self._user_keys.get(user)
        if key is None:
            raise AccessDeniedError(f"{user!r} has no extracted IBBE key")
        self.meter.count("pub_decrypt")
        try:
            return self.ibbe.decrypt_bytes(self.pk, record.header,
                                           record.blob, key)
        except DecryptionError:
            raise AccessDeniedError(
                f"{user!r} is not in this item's broadcast set")
