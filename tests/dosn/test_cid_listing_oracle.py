"""Remembered cid listings against the de-duplication they replaced.

``DosnUser.verified_cids`` remembers each reader's listing of an author
and extends it only by the entries the reader's view accepted since the
last call.  ``tests/dosn/reference.py`` keeps the listing as first
written — decode and de-duplicate the whole view on every call — as the
oracle.  A random script of one author's posts and reseals and two
readers' syncs, listings and tampered syncs (the last verified entry
rewritten, the chain truncated, a forged entry inside the new batch)
runs on three mutual friends; every listing must equal the oracle's, be
a tuple, and hold the chain entries' own cid strings, so that every
reader of the author holds the same objects.
"""

import dataclasses

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.dosn.identity import KeyRegistry
from repro.dosn.user import DosnUser
from repro.exceptions import IntegrityError
from repro.integrity.hashchain import ChainEntry

from tests.dosn import reference
from tests.overlay.test_kad_oracle import ORACLE

USERS = ("u0", "u1", "u2")
#: the author every script posts as; the other two users read them
AUTHOR = USERS[0]
#: how a tampered sync's published chain fails to extend the reader's view
TAMPERINGS = ("rewrite", "truncate", "forge")

READER = st.sampled_from(USERS[1:])
OP = st.one_of(
    st.just(("post",)), st.just(("post",)),
    st.tuples(st.just("reseal"), st.integers(0, 7)),
    st.tuples(st.just("sync"), READER), st.tuples(st.just("sync"), READER),
    st.tuples(st.just("list"), READER), st.tuples(st.just("list"), READER),
    st.tuples(st.just("tamper"), READER, st.sampled_from(TAMPERINGS),
              st.integers(0, 7)),
)


def _users():
    registry = KeyRegistry()
    users = {name: DosnUser(name, registry) for name in USERS}
    for i, a in enumerate(USERS):
        for b in USERS[i + 1:]:
            users[a].befriend(users[b])
    return users


def _forged(entry: ChainEntry) -> ChainEntry:
    e, s = entry.signature
    return dataclasses.replace(entry, signature=(e, s + 1))


def _tampered(author: DosnUser, known: int, kind: str, i: int):
    """A copy of ``author``'s published chain that does not extend a view
    of its first ``known`` entries, or None when ``kind`` cannot apply."""
    published = author.timeline.entries
    if kind == "rewrite":
        if not known:
            return None
        return (published[:known - 1]
                + [dataclasses.replace(published[known - 1],
                                       payload=b"rewritten")]
                + published[known:])
    if kind == "truncate":
        return published[:known - 1] if known else None
    new = len(published) - known
    if not new:
        return published + [ChainEntry(
            author=author.name, sequence=known,
            previous=author.timeline.head_hash, payload=b"forged",
            citations=(), signature=(1, 1))]
    at = known + i % new
    return published[:at] + [_forged(published[at])] + published[at + 1:]


def _tampered_sync(reader: DosnUser, author: DosnUser, kind: str,
                   i: int) -> None:
    """Sync ``reader`` from a tampered copy of ``author``'s chain, then
    put the genuine chain back."""
    timeline = author.timeline
    genuine = timeline.entries
    tampered = _tampered(author, len(reader.views[author.name].entries),
                         kind, i)
    if tampered is None:
        return
    timeline.entries = tampered
    try:
        with pytest.raises(IntegrityError):
            reader.sync_timeline(author)
    finally:
        timeline.entries = genuine


def _check(reader: DosnUser, author: str) -> None:
    listing = reader.verified_cids(author)
    assert isinstance(listing, tuple)
    assert listing == tuple(reference.verified_cids(reader, author))
    own = {id(entry.payload_text()) for entry in reader.views[author].entries}
    assert all(id(cid) in own for cid in listing)


def _run(users, texts, op) -> None:
    kind, author = op[0], users[AUTHOR]
    if kind == "post":
        texts.append(f"post {len(texts)}")
        author.seal_post(texts[-1])
    elif kind == "reseal":
        if texts:
            sequence = op[1] % len(texts)
            author.reseal_post(texts[sequence], (), sequence)
    elif kind == "sync":
        users[op[1]].sync_timeline(author)
    elif kind == "list":
        _check(users[op[1]], AUTHOR)
    else:
        _tampered_sync(users[op[1]], author, op[2], op[3])


@ORACLE
@given(ops=st.lists(OP, min_size=4, max_size=40))
def test_the_remembered_listing_equals_the_deduplicating_oracle(ops):
    users, texts = _users(), []
    for op in ops:
        _run(users, texts, op)
    listings = []
    for reader in USERS[1:]:
        _check(users[reader], AUTHOR)
        listings.append(users[reader].verified_cids(AUTHOR))
    assert all(a is b for a, b in zip(*listings))


class TestListing:
    def _posted(self, n=3):
        users = _users()
        author = users["u0"]
        cids = [author.seal_post(f"p{i}")[0] for i in range(n)]
        return users, author, cids

    def test_two_readers_of_one_author_list_the_same_str_objects(self):
        users, author, cids = self._posted()
        author.reseal_post("p0", (), 0)
        one, two = users["u1"], users["u2"]
        for reader in (one, two):
            reader.sync_timeline(author)
        first, second = one.verified_cids("u0"), two.verified_cids("u0")
        assert first == second == tuple(cids)
        assert all(a is b for a, b in zip(first, second))
        assert all(a is e.payload_text()
                   for a, e in zip(first, author.timeline.entries))

    def test_a_rewrite_lists_only_the_verified_prefix(self):
        users, author, cids = self._posted()
        reader = users["u1"]
        reader.sync_timeline(author)
        assert reader.verified_cids("u0") == tuple(cids)
        author.timeline.entries.pop()
        author.timeline.publish(b"rewritten", rng=author.rng)
        with pytest.raises(IntegrityError, match="history rewrite"):
            reader.sync_timeline(author)
        assert reader.verified_cids("u0") == tuple(cids)

    def test_a_failed_batch_lists_only_the_accepted_prefix(self):
        users, author, cids = self._posted()
        reader = users["u1"]
        assert reader.verified_cids("u0") == ()
        reader.sync_timeline(author)
        assert reader.verified_cids("u0") == tuple(cids)
        more = [author.seal_post(f"q{i}")[0] for i in range(3)]
        entries = author.timeline.entries
        entries[4] = _forged(entries[4])
        with pytest.raises(IntegrityError, match="signature"):
            reader.sync_timeline(author)
        assert len(reader.views["u0"].entries) == 4
        assert reader.verified_cids("u0") == tuple(cids + more[:1])

    def test_a_reader_without_a_view_lists_nothing(self):
        users, _, _ = self._posted()
        assert users["u1"].verified_cids("stranger") == ()
