"""Hash-chained timelines: provable partial order of a user's posts.

Section IV-B of the paper: "For the data history integrity, one solution is
to use hash chaining alongside digital signature.  In this method, the
digital signature must be applied on each entry published by a user, and
includes the hash of at least one of his prior posts.  This causes a
provable partial ordering for his posts" — the FETHR (birds-of-a-FETHR)
micropublishing design.

:class:`Timeline` is the author side (append + sign); :class:`TimelineView`
is the follower side, which accepts entries in order, verifies the chain
links and signatures, and can produce/check :func:`order_proof` — the
chain segment showing entry ``i`` provably precedes entry ``j``.
"""

from __future__ import annotations

import dataclasses
import random as _random
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from repro.crypto.hashing import digest, digest_many
from repro.crypto.signatures import SchnorrPublicKey, SchnorrSigner
from repro.exceptions import IntegrityError

#: The link value "before the first entry" of every timeline.
GENESIS = digest(b"repro/hashchain/genesis")


@dataclass(frozen=True, slots=True)
class ChainEntry:
    """One signed timeline entry.

    ``previous`` is the hash of the preceding entry (GENESIS for the
    first); ``citations`` optionally carry hashes of *other users'* entries
    for cross-timeline entanglement (see :mod:`repro.integrity.entanglement`).

    The three memos below are not ``__init__`` arguments, so a
    ``dataclasses.replace`` copy (a tampered one, say) starts without
    them; ``__slots__`` keeps them from costing a per-entry ``__dict__``.
    """

    author: str
    sequence: int
    previous: bytes
    payload: bytes
    citations: Tuple[Tuple[str, int, bytes], ...]
    signature: Tuple[int, int]
    #: :meth:`payload_text`, remembered.
    _text: Optional[str] = field(default=None, init=False, repr=False,
                                 compare=False)
    #: :meth:`entry_hash`, remembered.
    _hash: Optional[bytes] = field(default=None, init=False, repr=False,
                                   compare=False)
    #: the last key :meth:`verified_by` accepted the signature under
    _verified_under: Optional[SchnorrPublicKey] = field(
        default=None, init=False, repr=False, compare=False)

    def entry_hash(self) -> bytes:
        """The value the *next* entry chains to (covers the signature too).

        Entries are immutable, so it is computed once per entry object.
        """
        if self._hash is None:
            object.__setattr__(self, "_hash", self._hash_fields())
        return self._hash

    def payload_text(self) -> str:
        """The payload decoded as UTF-8, once per entry object.

        Every follower of an author holds the same entry objects, so they
        all hold this one ``str`` too.
        """
        if self._text is None:
            object.__setattr__(self, "_text", self.payload.decode())
        return self._text

    def verified_by(self, key: SchnorrPublicKey) -> bool:
        """Whether ``key`` verifies the author's signature on this entry.

        Every follower of an author holds the same entry objects, so the
        check runs once per (entry, key): a success is remembered, a
        reject never is.  Only an entry whose own signature was checked
        remembers it: the earlier entries of a batch that
        :meth:`TimelineView.accept_all` took on the newest one's
        signature stay unchecked, so an order proof over them still
        verifies each.
        """
        under = self._verified_under
        if under is key or under == key:
            return True
        if not key.verify(self.signed_bytes(), self.signature):
            return False
        object.__setattr__(self, "_verified_under", key)
        return True

    def _hash_fields(self) -> bytes:
        return digest_many([
            self.author.encode(), self.sequence.to_bytes(8, "big"),
            self.previous, self.payload,
            *(f"{a}:{s}".encode() + h for a, s, h in self.citations),
            repr(self.signature).encode(),
        ])

    def signed_bytes(self) -> bytes:
        """What the author signed."""
        return digest_many([
            b"repro/hashchain/v1", self.author.encode(),
            self.sequence.to_bytes(8, "big"), self.previous, self.payload,
            *(f"{a}:{s}".encode() + h for a, s, h in self.citations),
        ])


class Timeline:
    """Author-side append-only hash-chained log."""

    def __init__(self, author: str, signer: SchnorrSigner) -> None:
        self.author = author
        self._signer = signer
        self.entries: List[ChainEntry] = []

    @property
    def head_hash(self) -> bytes:
        """Hash of the latest entry (GENESIS when empty)."""
        return self.entries[-1].entry_hash() if self.entries else GENESIS

    def publish(self, payload: bytes,
                citations: Sequence[Tuple[str, int, bytes]] = (),
                rng: Optional[_random.Random] = None) -> ChainEntry:
        """Append a signed entry chaining to the current head."""
        entry = ChainEntry(
            author=self.author, sequence=len(self.entries),
            previous=self.head_hash, payload=payload,
            citations=tuple(citations),
            signature=(0, 0))
        signed = dataclasses.replace(
            entry, signature=self._signer.sign(entry.signed_bytes(), rng=rng))
        self.entries.append(signed)
        return signed


class TimelineView:
    """Follower-side verified replica of one author's timeline."""

    def __init__(self, author: str, author_key: SchnorrPublicKey) -> None:
        self.author = author
        self.author_key = author_key
        self.entries: List[ChainEntry] = []

    @property
    def head_hash(self) -> bytes:
        """Hash of the latest accepted entry."""
        return self.entries[-1].entry_hash() if self.entries else GENESIS

    def accept(self, entry: ChainEntry) -> None:
        """Verify and append one entry; raises on any violation."""
        if entry.author != self.author:
            raise IntegrityError(
                f"entry authored by {entry.author!r}, expected "
                f"{self.author!r}")
        if entry.sequence != len(self.entries):
            raise IntegrityError(
                f"sequence gap: got {entry.sequence}, expected "
                f"{len(self.entries)} (missing or replayed entries)")
        if entry.previous != self.head_hash:
            raise IntegrityError(
                "chain break: entry does not link to the current head "
                "(history was rewritten or an entry was suppressed)")
        if not entry.verified_by(self.author_key):
            raise IntegrityError("entry signature does not verify")
        self.entries.append(entry)

    def accept_all(self, entries: Sequence[ChainEntry]) -> None:
        """Accept a batch in order, checking one signature when it links.

        :meth:`ChainEntry.entry_hash` covers the signature, so when every
        entry of the batch is the author's, continues the sequence and
        names the hash of the one before it (the first, this view's head),
        a valid signature on the newest vouches for all of them: the
        batch costs one verify, through :meth:`ChainEntry.verified_by`.
        When either check fails the batch goes entry by entry through
        :meth:`accept`, so every rejection raises the same error after
        accepting the same prefix as a per-entry loop would.  One case
        differs: an author who signs a successor of their own badly-signed
        entry has the whole batch accepted, where the loop rejects the bad
        entry's signature; only the author's key can make that successor.
        A one-entry batch is a plain :meth:`accept`.
        """
        if (len(entries) > 1 and self._extends(entries)
                and entries[-1].verified_by(self.author_key)):
            self.entries.extend(entries)
            return
        for entry in entries:
            self.accept(entry)

    def _extends(self, entries: Sequence[ChainEntry]) -> bool:
        """Whether ``entries`` are this author's next entries, each naming
        the hash of the one before it; no signature is checked."""
        previous, sequence = self.head_hash, len(self.entries)
        for entry in entries:
            if (entry.author != self.author or entry.sequence != sequence
                    or entry.previous != previous):
                return False
            previous, sequence = entry.entry_hash(), sequence + 1
        return True


@dataclass(frozen=True)
class OrderProof:
    """Evidence that one timeline entry precedes another.

    The proof is the contiguous chain segment from the earlier entry
    (``segment[0]``) to the later one (``segment[-1]``); a verifier needs
    only the author's public key — no trusted replica.
    """

    segment: Tuple[ChainEntry, ...]


def order_proof(entries: Sequence[ChainEntry], earlier_seq: int,
                later_seq: int) -> OrderProof:
    """Extract the chain segment proving ``earlier_seq < later_seq``."""
    if not 0 <= earlier_seq < later_seq < len(entries):
        raise IntegrityError("order proof needs earlier < later, in range")
    return OrderProof(segment=tuple(entries[earlier_seq:later_seq + 1]))


def verify_order_proof(proof: OrderProof,
                       author_key: SchnorrPublicKey) -> bool:
    """Check signatures and chain links along the proof segment."""
    previous_hash: Optional[bytes] = None
    for entry in proof.segment:
        if not entry.verified_by(author_key):
            return False
        if previous_hash is not None and entry.previous != previous_hash:
            return False
        previous_hash = entry.entry_hash()
    return len(proof.segment) >= 2
