"""Content addressing: the ids posts are stored and fetched under.

The storage layer is content-addressed (ids are digests of canonical
encodings) so any replica or provider returning a blob can be checked
against the id it was requested under — the cheapest integrity mechanism of
all; a post's id covers its every field, and the author's signed hash
chain (Section IV) lists it.
"""

from __future__ import annotations

from repro.crypto.hashing import digest_many


def content_id(author: str, kind: str, payload: bytes,
               sequence: int, *parts: bytes) -> str:
    """A stable content address; trailing ``parts`` follow the sequence."""
    raw = digest_many([b"repro/content", author.encode(), kind.encode(),
                       payload, sequence.to_bytes(8, "big"), *parts])
    return raw.hex()[:32]
