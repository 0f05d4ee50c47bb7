"""Signed, hash-chained version records — what replicas actually store.

Every ``put`` of the replicated store seals a :class:`StoredVersion`: the
payload plus a monotone version number and the hash of the previous
record, all under the author's Schnorr signature (Section IV of the
paper: signatures for owner/content integrity, hash chains for version
order).  The consequence is the whole threat model of
:mod:`repro.storage2`: a Byzantine replica holder can *replay* an old
record (it is genuinely signed) or serve garbage (verification fails),
but it cannot forge a record claiming a version the author never wrote —
so quorum readers only ever have to arbitrate between authentic versions,
and "newest verified wins" is sound.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable, Optional, Tuple

from repro.crypto.hashing import digest, digest_many
from repro.exceptions import IntegrityError

#: Chain anchor: ``previous`` of every version-1 record.
GENESIS = digest(b"repro/storage2/genesis")

_DOMAIN = b"repro/storage2/record"


def _int_bytes(value: int) -> bytes:
    return value.to_bytes(max(1, (value.bit_length() + 7) // 8), "big")


@dataclass(frozen=True)
class StoredVersion:
    """One sealed version of one key."""

    key: str
    version: int
    previous: bytes
    author: str
    payload: bytes
    signature: Tuple[int, int]

    def signed_bytes(self) -> bytes:
        """The digest the author signs (length-framed, domain-separated)."""
        return digest_many([
            _DOMAIN, self.key.encode(), self.version.to_bytes(8, "big"),
            self.previous, self.author.encode(), self.payload])

    def record_hash(self) -> bytes:
        """The chain link for the *next* version (covers the signature)."""
        e, s = self.signature
        return digest_many([b"repro/storage2/hash", self.signed_bytes(),
                            _int_bytes(e), _int_bytes(s)])

    def verify(self, verify_key) -> bool:
        """Check the author's signature over the sealed fields."""
        return verify_key.verify(self.signed_bytes(), self.signature)

    def encode(self) -> bytes:
        """Canonical wire/store encoding (sorted-key JSON)."""
        return json.dumps({
            "author": self.author,
            "key": self.key,
            "payload": self.payload.hex(),
            "previous": self.previous.hex(),
            "signature": list(self.signature),
            "version": self.version,
        }, sort_keys=True, separators=(",", ":")).encode()

    @classmethod
    def decode(cls, blob: bytes) -> "StoredVersion":
        """Parse a stored record; malformed bytes raise IntegrityError."""
        try:
            obj = json.loads(blob.decode())
            e, s = obj["signature"]
            record = cls(
                key=obj["key"], version=int(obj["version"]),
                previous=bytes.fromhex(obj["previous"]),
                author=obj["author"],
                payload=bytes.fromhex(obj["payload"]),
                signature=(int(e), int(s)))
        except (ValueError, KeyError, TypeError, UnicodeDecodeError) as exc:
            raise IntegrityError(f"undecodable stored record: {exc}")
        if record.version < 1:
            raise IntegrityError("stored record has a non-positive version")
        return record


def newest(copies: Iterable[Tuple[str, StoredVersion]]
           ) -> Optional[Tuple[str, StoredVersion]]:
    """The ``(holder, record)`` that wins among verified copies: the
    newest version, a tie broken by the larger :meth:`record_hash` (the
    first such copy if several are identical); ``None`` for no copies."""
    return max(copies, key=lambda copy: (copy[1].version,
                                         copy[1].record_hash()),
               default=None)


def seal_version(signer, key: str, version: int, previous: bytes,
                 author: str, payload: bytes, rng=None) -> StoredVersion:
    """Sign one version with the author's key and return the record."""
    unsigned = StoredVersion(key=key, version=version, previous=previous,
                             author=author, payload=payload,
                             signature=(0, 0))
    signature = signer.sign(unsigned.signed_bytes(), rng=rng)
    return StoredVersion(key=key, version=version, previous=previous,
                         author=author, payload=payload,
                         signature=signature)
