"""Content addressing: the ids posts are stored and fetched under.

The storage layer is content-addressed (ids are digests of canonical
encodings) so any replica or provider returning a blob can be checked
against the id it was requested under — the cheapest integrity mechanism of
all, complementing the signatures from Section IV.
"""

from __future__ import annotations

from repro.crypto.hashing import digest_many


def content_id(author: str, kind: str, payload: bytes,
               sequence: int) -> str:
    """A stable content address for an object."""
    raw = digest_many([b"repro/content", author.encode(), kind.encode(),
                       payload, sequence.to_bytes(8, "big")])
    return raw.hex()[:32]
