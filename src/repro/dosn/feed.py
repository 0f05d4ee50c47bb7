"""News-feed assembly with end-to-end verification.

A user's feed is the union of their friends' timelines.  Assembling it
exercises every integrity layer at once: the hash chain proves no friend's
history was truncated, reordered or rewritten (Section IV-B), its signed
entry listing a post's content address proves owner/content integrity
(IV-A), the address proves the storage layer served the post that was
asked for, and decryption enforces the access policy (Section III).

:func:`assemble_feed` reports problems instead of silently dropping them —
a feed that quietly hides a friend's censored post is exactly the
equivocation the paper warns about.

There is one pass per friend: :func:`sync_feed` syncs *every* friend's
timeline and lists its chain-verified cids once (:func:`sync_friends`);
a cached feed hands that listing to a
:class:`~repro.cache.SocialPrefetcher`'s ``warm`` first, or replays the
reader's previous feed when nothing it depends on has moved
(:meth:`~repro.cache.VerifiedContentCache.replay`); then
:func:`assemble_feed` plans the cids still needed (a
:class:`~repro.cache.VerifiedContentCache`'s ``lookup`` serves unchanged
posts without fetch + decrypt + verify — only after re-checking the
entry against the friend's *current* chain-verified head, so stale
copies are evicted, never shown), fetches the plan in one
``fetch_many`` call and opens each blob.  ``fetch_many`` is the
:meth:`~repro.dosn.storage.StorageBackend.get_many` contract; a backend
with nothing to coalesce meets it one cid at a time
(:func:`~repro.dosn.storage.fetch_each`).

Every :class:`FeedItem` carries a typed
:class:`~repro.dosn.results.ReadResult` recording where its bytes came
from (``cache`` / ``quorum`` / ``bare``) and whether the read was
degraded.  Both are frozen, shared values: every hit on a cache entry
serves the entry's one item (:func:`cache_hit`), and a replayed feed
the items of the feed it replays, so an assignment to an item or its
result raises instead of changing every later feed that serves it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro.dosn.results import ReadResult
from repro.dosn.user import DosnUser, VerifiedPost
from repro.exceptions import AccessDeniedError, IntegrityError


@dataclass(slots=True, frozen=True)
class FeedItem:
    """One verified feed entry (frozen: cache hits and replays share it)."""

    post: VerifiedPost
    author: str
    #: provenance of this entry's bytes (source / degraded / verified)
    result: Optional[ReadResult] = None


def cache_hit(post: VerifiedPost, author: str) -> FeedItem:
    """The item a cache hit on ``post`` serves: a
    :class:`~repro.cache.VerifiedContentCache` built with
    ``serve=cache_hit`` makes it once per entry, and every feed serving
    the entry shares it."""
    return FeedItem(post, author, ReadResult(post, True, False, "cache"))


@dataclass
class FeedReport:
    """The assembled feed plus anything that failed verification."""

    items: List[FeedItem] = field(default_factory=list)
    unavailable: List[Tuple[str, str]] = field(default_factory=list)
    violations: List[Tuple[str, str]] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        """True when every friend's every post arrived and verified."""
        return not self.unavailable and not self.violations


def sync_friends(reader: DosnUser, friends: Dict[str, DosnUser],
                 authors: Iterable[str], violations: List[Tuple[str, str]]
                 ) -> List[Tuple[str, object, Tuple[str, ...]]]:
    """Sync and chain-verify each of ``authors``' timelines, in name order.

    Returns ``(author, view, verified_cids)`` for every author whose
    published chain extends ``reader``'s verified view; an author whose
    chain does not is recorded in ``violations`` as
    ``(author, "timeline: ...")``, and a name missing from ``friends`` is
    skipped.
    """
    listing = []
    for name in sorted(authors):
        friend = friends.get(name)
        if friend is None:
            continue
        try:
            reader.sync_timeline(friend)
        except IntegrityError as exc:
            violations.append((name, f"timeline: {exc}"))
            continue
        listing.append((name, reader.views[name], reader.verified_cids(name)))
    return listing


def sync_feed(reader: DosnUser, friends: Dict[str, DosnUser],
              limit_per_friend: Optional[int]
              ) -> Tuple[FeedReport,
                         List[Tuple[str, object, Tuple[str, ...]]]]:
    """Open ``reader``'s feed: check the limit, then sync every friend.

    Returns the report to fill, holding any timeline violation already,
    and the :func:`sync_friends` listing :func:`assemble_feed` serves.
    """
    if limit_per_friend is not None and limit_per_friend < 0:
        raise ValueError("limit_per_friend must be >= 0")
    report = FeedReport()
    return report, sync_friends(reader, friends, reader.friends,
                                report.violations)


def assemble_feed(reader: str, report: FeedReport,
                  listing: Iterable[Tuple[str, object, Tuple[str, ...]]],
                  fetch_many: Callable[[str, List[str]], Dict[str, object]],
                  open_post: Callable[[str, bytes, str], VerifiedPost],
                  limit_per_friend: Optional[int] = None,
                  lookup=lambda reader, author, cid, view: None,
                  insert=lambda *entry, version=None: None) -> FeedReport:
    """Serve ``reader``'s verified feed from a :func:`sync_feed` listing.

    ``report`` and ``listing`` are what :func:`sync_feed` returned: every
    friend's timeline is synced and chain-verified first, once, and the
    caller may act on that listing (a cached feed warms the reader's
    cache from it) before the referenced posts are fetched in one call,
    decrypted and checked against the synced views.
    ``fetch_many(reader_name, cids) -> {cid: FetchedBlob | exception}``
    abstracts the storage backend
    (:meth:`~repro.dosn.storage.StorageBackend.get_many`'s contract);
    ``open_post(author, blob, cid) -> VerifiedPost`` abstracts the
    decrypt+verify pipeline (a network's
    :class:`~repro.stack.pipeline.ProtectionStack` ACL/integrity read
    path).  ``lookup`` and ``insert`` are a
    :class:`~repro.cache.VerifiedContentCache`'s methods of those names,
    the cache built with :func:`cache_hit` as its ``serve``: ``lookup``
    serves chain-validated hits (each entry's one shared item) without
    fetching, ``insert`` is
    seeded with every post this assembly verifies (degraded reads are
    never cached).  The defaults are a cache that is always cold.

    Latency model: the feed inherits whatever the storage backend pays.
    A coalescing ``fetch_many`` rides the backend's parallel fan-out (one
    overlapped probe per holder — see :meth:`ReplicatedStore.get_many`
    and :meth:`ChordRing.get_many`), so a warm feed costs roughly the
    slowest holder instead of the sum of all of them; cid-by-cid fetches
    remain dependent and still sum.
    """
    plan: List[Tuple[str, str, object]] = []   # (author, cid, view) to fetch
    for name, view, cids in listing:
        if limit_per_friend is not None:
            # not ``cids[-limit:]``: ``-0`` slices the whole list
            cids = cids[max(len(cids) - limit_per_friend, 0):]
        for cid in cids:
            entry = lookup(reader, name, cid, view)
            if entry is not None:
                report.items.append(entry.served)
                continue
            plan.append((name, cid, view))
    blobs = fetch_many(reader, [cid for _, cid, _ in plan]) if plan else {}
    for name, cid, view in plan:
        got = blobs.get(cid)
        if got is None or isinstance(got, Exception):
            report.unavailable.append(
                (cid, str(got) if got is not None
                 else "missing from batched fetch"))
            continue
        try:
            post = open_post(name, got.blob, cid)
        except (IntegrityError, AccessDeniedError) as exc:
            report.violations.append((name, f"{cid}: {exc}"))
            continue
        report.items.append(FeedItem(
            post=post, author=name,
            result=ReadResult(post, verified=True, degraded=got.degraded,
                              source=got.source)))
        if not got.degraded:
            insert(reader, name, cid, post, view, version=got.version)
    report.items.sort(key=lambda item: (item.author, item.post.sequence))
    return report
