"""The DOSN peer: identity + encryption + integrity + storage, composed.

"Every user is equally privileged participant, and can be the source and
destination of the provided information" (Section I).  A :class:`DosnUser`
is exactly that: it owns its identity and keys, encrypts content for its
friend group before anything touches storage, hash-chains and signs every
post, and decrypts/verifies everything it reads.

Wire format: a post blob is the JSON document ``{author, sequence, text,
tags}``; its content id covers every field, and the author's signed chain
entry listing the id is its one signature.  When the network runs with
encryption enabled the JSON is wrapped in the author's group
:class:`~repro.crypto.symmetric.StreamCipher`, derived from the group key
once and shared by reference with every friend.  Group keys reach friends
through the out-of-band channel of :mod:`repro.dosn.identity` (the paper's
solved-key-distribution assumption); the *comparison* between key-
management schemes is the job of :mod:`repro.acl` and experiments E2/E3 —
here one scheme suffices to make the network concrete.
"""

from __future__ import annotations

import json
import random as _random
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.crypto.symmetric import StreamCipher, random_key
from repro.dosn.content import content_id
from repro.dosn.identity import Identity, KeyRegistry, create_identity
from repro.exceptions import (AccessDeniedError, DecryptionError,
                              IntegrityError)
from repro.integrity.hashchain import Timeline, TimelineView
from repro.obs.trace import NOOP_TRACER


# Deterministic virtual CPU-cost model for the crypto phases, so traced
# cost breakdowns can price decrypt/verify next to network RTTs without
# reading the (nondeterministic) wall clock.  Constants are calibrated to
# the pure-Python primitives' rough throughput on one core.
_SYM_SECONDS_PER_BYTE = 2e-6     # SHA-256-CTR stream cipher
_SIG_SECONDS_PER_OP = 5e-3       # one Schnorr sign or verify, TOY level
#: the parameter level (:mod:`repro.crypto.params`) every identity is
#: created at — the one the cost constants above are calibrated to
_LEVEL = "TOY"


def _post_cid(author: str, sequence: int, text: str,
              tags: Sequence[str]) -> str:
    """The content id of a post document: it covers every field."""
    return content_id(author, "post", text.encode(), sequence,
                      *(tag.encode() for tag in tags))


@dataclass(slots=True)
class VerifiedPost:
    """A post whose cid matches its document and is on the author's chain.

    A shared read-only value: a reader's cache entry, feed items and
    replayed feeds hold the one object its read opened, and ``slots``
    spare each of them a ``__dict__``.
    """

    author: str
    sequence: int
    text: str
    tags: Tuple[str, ...]
    content_id: str


class DosnUser:
    """One peer in the DOSN."""

    def __init__(self, name: str, registry: KeyRegistry,
                 rng: Optional[_random.Random] = None,
                 encrypt_content: bool = True, tracer=None) -> None:
        self.name = name
        #: fabric tracer (injected by DosnNetwork); no-op by default
        self.tracer = tracer if tracer is not None else NOOP_TRACER
        self.rng = rng or _random.Random(f"user/{name}")
        self.identity: Identity = create_identity(name, _LEVEL, self.rng)
        self.registry = registry
        registry.register(self.identity)
        self.encrypt_content = encrypt_content
        self.friends: Set[str] = set()
        self.timeline = Timeline(name, self.identity.signer)
        #: this user's friend-group key (symmetric-ACL style)
        self.group_key: bytes = random_key(32, self.rng)
        #: keys received from friends: author -> their group cipher, the
        #: author's own object (deleting an entry revokes it)
        self.friend_keys: Dict[str, StreamCipher] = {}
        #: verified replicas of friends' timelines
        self.views: Dict[str, TimelineView] = {}
        #: author -> (entries of their view listed, :meth:`verified_cids`)
        self._listings: Dict[str, Tuple[int, Tuple[str, ...]]] = {}
        self.posts_published = 0

    @cached_property
    def group_cipher(self) -> StreamCipher:
        """The cipher of :attr:`group_key`: its two HKDFs run once, and
        every friend holds this object, not a copy."""
        return StreamCipher(self.group_key)

    # -- friendship -----------------------------------------------------------

    def befriend(self, other: "DosnUser") -> None:
        """Mutual friendship: exchange group keys over the OOB channel."""
        self.friends.add(other.name)
        other.friends.add(self.name)
        self.friend_keys[other.name] = other.group_cipher
        other.friend_keys[self.name] = self.group_cipher
        # Pin each other's verified timelines from the current state.
        self._ensure_view(other.name)
        other._ensure_view(self.name)

    def _ensure_view(self, author: str) -> TimelineView:
        view = self.views.get(author)
        if view is None:
            public = self.registry.get(author)
            view = TimelineView(author, public.verify_key)
            self.views[author] = view
        return view

    # -- publishing ---------------------------------------------------------------

    def seal_post(self, text: str,
                  tags: Sequence[str] = ()) -> Tuple[str, bytes]:
        """The integrity half of publishing: address and chain a post.

        Returns ``(content_id, canonical document)`` — the JSON wire form
        *before* any encryption.  This is the stack's
        :class:`~repro.stack.pipeline.IntegrityLayer` hook.
        """
        sealed = self._seal(text, tags, self.posts_published)
        self.posts_published += 1
        return sealed

    def reseal_post(self, text: str, tags: Sequence[str],
                    sequence: int) -> Tuple[str, bytes]:
        """Re-chain an *existing* post (same cid, new bytes).

        Content addressing pins the cid to the document's fields, so an
        overwrite cannot change what the address names — but re-encryption
        draws a fresh nonce, so the stored bytes do change.  Re-listing the
        cid on the hash chain is the signed overwrite announcement readers'
        caches invalidate on; ``posts_published`` is *not* advanced (the
        sequence is being reused, not extended).
        """
        if sequence >= self.posts_published:
            raise IntegrityError(
                f"cannot reseal unpublished sequence {sequence} "
                f"(published so far: {self.posts_published})")
        return self._seal(text, tags, sequence)

    def _seal(self, text: str, tags: Sequence[str],
              sequence: int) -> Tuple[str, bytes]:
        """Build the canonical document and sign its cid onto the chain."""
        document = json.dumps({
            "author": self.name, "sequence": sequence, "text": text,
            "tags": list(tags),
        }).encode()
        cid = _post_cid(self.name, sequence, text, tags)
        with self.tracer.span("crypto.sign", author=self.name) as span:
            span.add_cost(_SIG_SECONDS_PER_OP)
            self.timeline.publish(cid.encode(), rng=self.rng)
        return cid, document

    def protect_document(self, document: bytes) -> bytes:
        """The ACL half of publishing: group-encrypt the sealed document.

        A no-op on unencrypted networks; the stack's
        :class:`~repro.stack.pipeline.AclLayer` hook.
        """
        if not self.encrypt_content:
            return document
        with self.tracer.span("crypto.encrypt",
                              nbytes=len(document)) as span:
            span.add_cost(len(document) * _SYM_SECONDS_PER_BYTE)
            return self.group_cipher.encrypt(document, rng=self.rng)

    # -- reading --------------------------------------------------------------------

    def unlock(self, author: str, blob: bytes) -> bytes:
        """The ACL half of reading: recover the canonical document.

        A no-op on unencrypted networks, as :meth:`protect_document` is;
        on an encrypted one every blob must open under the author's group
        key, so a plaintext one is refused like any other.  Raises
        :class:`AccessDeniedError` when we hold no (working) key.  This
        is the stack's read-path :class:`~repro.stack.pipeline.AclLayer`
        hook.
        """
        if not self.encrypt_content:
            return blob
        cipher = (self.group_cipher if author == self.name
                  else self.friend_keys.get(author))
        if cipher is None:
            raise AccessDeniedError(
                f"{self.name!r} holds no group key of {author!r}")
        with self.tracer.span("crypto.decrypt", author=author,
                              nbytes=len(blob)) as span:
            span.add_cost(len(blob) * _SYM_SECONDS_PER_BYTE)
            try:
                return cipher.decrypt(blob)
            except DecryptionError:
                raise AccessDeniedError(
                    f"{self.name!r}'s key for {author!r} does not open "
                    "this blob (revoked or rotated)")

    def verify_document(self, author: str, document: bytes,
                        expected_cid: Optional[str] = None) -> VerifiedPost:
        """The integrity half of reading: the document's recomputed cid
        must equal ``expected_cid`` (when given) and be on this reader's
        synced view of ``author``'s chain, whose signed entries are the
        posts' signatures.  Raises :class:`IntegrityError` otherwise; the
        stack's read-path :class:`~repro.stack.pipeline.IntegrityLayer`
        hook.
        """
        try:
            data = json.loads(document.decode())
            claimed, sequence, text, tags = (
                data["author"], data["sequence"], data["text"],
                tuple(data["tags"]))
            cid = _post_cid(claimed, sequence, text, tags)
        except (ValueError, KeyError, TypeError, AttributeError,
                OverflowError) as exc:
            raise IntegrityError(f"malformed post document: {exc!r}")
        if expected_cid is not None and cid != expected_cid:
            raise IntegrityError(
                "content id mismatch: storage served a different post "
                "than requested")
        chain = self.views[author].entries if author in self.views else ()
        listed = cid.encode()
        for entry in reversed(chain):
            if entry.payload == listed:
                # name it with the strings every reader already shares —
                # the author's name and the chain's own cid — not with
                # the copies this document decoded to
                return VerifiedPost(
                    author if claimed == author else claimed, sequence,
                    text, tags, content_id=entry.payload_text())
        raise IntegrityError(f"post {cid} is not on the "
                             f"verified timeline of {author!r}")

    # -- timeline sync (historical integrity) -------------------------------------

    def sync_timeline(self, other: "DosnUser") -> int:
        """Pull and chain-verify a friend's new timeline entries.

        Returns how many entries were accepted; raises
        :class:`IntegrityError` if the friend's published chain does not
        extend our verified view (truncated, rewritten even at the same
        length, or a new entry that fails to link or verify).  The new
        entries hash-link, so the view checks one signature for them, the
        newest (:meth:`~repro.integrity.hashchain.TimelineView.accept_all`);
        the batch still costs one ``crypto.verify`` span priced per entry,
        as the virtual CPU-cost model stays until it is calibrated.
        """
        view = self._ensure_view(other.name)
        published = other.timeline.entries
        known = len(view.entries)
        # identity first: a warm sync of an unchanged chain hashes nothing
        if known and (len(published) < known or (
                published[known - 1] is not view.entries[-1]
                and published[known - 1].entry_hash() != view.head_hash)):
            raise IntegrityError(
                f"history rewrite: the chain no longer holds the {known} "
                "entries already verified (truncated or replaced)")
        if len(published) == known:
            return 0
        new_entries = published[known:]
        view.accept_all(new_entries)
        with self.tracer.span("crypto.verify", author=other.name) as span:
            span.add_cost(_SIG_SECONDS_PER_OP * len(new_entries))
        return len(new_entries)

    def verified_cids(self, author: str) -> Tuple[str, ...]:
        """Content ids from the author's chain-verified timeline, in order.

        A re-sealed post lists its cid more than once on the chain
        (:meth:`reseal_post`); readers want each post once, at its first
        publication position, so duplicates are dropped keeping first
        occurrence.  The listing is remembered per author and extended
        only by the entries the view accepted since the last call (a view
        only ever appends), so a feed over an unchanged chain decodes
        nothing.  Its cids are the entries' own
        :meth:`~repro.integrity.hashchain.ChainEntry.payload_text`
        strings, the same objects for every reader of the author, and it
        is a tuple: no caller can edit it.
        """
        view = self.views.get(author)
        if view is None:
            return ()
        listed, cids = self._listings.get(author, (0, ()))
        entries = view.entries
        if listed < len(entries):
            seen = set(cids)
            new: List[str] = []
            for entry in entries[listed:]:
                cid = entry.payload_text()
                if cid not in seen:
                    seen.add(cid)
                    new.append(cid)
            cids += tuple(new)
            self._listings[author] = (len(entries), cids)
        return cids
