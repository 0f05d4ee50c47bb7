"""News-feed assembly with end-to-end verification.

A user's feed is the union of their friends' timelines.  Assembling it
exercises every integrity layer at once: the hash chain proves no friend's
history was truncated or reordered (Section IV-B), the per-post signature
proves owner/content integrity (IV-A), the content address proves the
storage layer served the blob that was asked for, and decryption enforces
the access policy (Section III).

:func:`assemble_feed` reports problems instead of silently dropping them —
a feed that quietly hides a friend's censored post is exactly the
equivocation the paper warns about.

There is one loop: sync *every* friend's timeline, plan the cids still
needed (a :class:`~repro.cache.VerifiedContentCache`'s ``lookup`` serves
unchanged posts without fetch + decrypt + verify — only after re-checking
the entry against the friend's *current* chain-verified head, so stale
copies are evicted, never shown), fetch the plan in one ``fetch_many``
call, open each blob.  ``fetch_many`` is the
:meth:`~repro.dosn.storage.StorageBackend.get_many` contract; a backend
with nothing to coalesce meets it one cid at a time
(:func:`~repro.dosn.storage.fetch_each`).

Every :class:`FeedItem` carries a typed
:class:`~repro.dosn.results.ReadResult` recording where its bytes came
from (``cache`` / ``quorum`` / ``bare``) and whether the read was
degraded.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.dosn.results import ReadResult
from repro.dosn.user import DosnUser, VerifiedPost
from repro.exceptions import AccessDeniedError, IntegrityError


@dataclass
class FeedItem:
    """One verified feed entry."""

    post: VerifiedPost
    author: str
    #: provenance of this entry's bytes (source / degraded / verified)
    result: Optional[ReadResult] = None


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


def assemble_feed(reader: DosnUser, friends: Dict[str, DosnUser],
                  fetch_many: Callable[[str, List[str]], Dict[str, object]],
                  open_post: Callable[[str, bytes, str], VerifiedPost],
                  limit_per_friend: Optional[int] = None,
                  lookup=lambda reader, author, cid, view: None,
                  insert=lambda *entry, version=None: None) -> FeedReport:
    """Build ``reader``'s verified feed.

    ``fetch_many(reader_name, cids) -> {cid: FetchedBlob | exception}``
    abstracts the storage backend
    (:meth:`~repro.dosn.storage.StorageBackend.get_many`'s contract);
    ``open_post(author, blob, cid) -> VerifiedPost`` abstracts the
    decrypt+verify pipeline (a network's
    :class:`~repro.stack.pipeline.ProtectionStack` ACL/integrity read
    path).  Every friend's timeline is synced and chain-verified first;
    the referenced posts are then fetched in one call, decrypted and
    signature-verified.  ``lookup`` and ``insert`` are a
    :class:`~repro.cache.VerifiedContentCache`'s methods of those names:
    ``lookup`` serves chain-validated hits without fetching, ``insert`` is
    seeded with every post this assembly verifies (degraded reads are
    never cached).  The defaults are a cache that is always cold.

    Latency model: the feed inherits whatever the storage backend pays.
    A coalescing ``fetch_many`` rides the backend's parallel fan-out (one
    overlapped probe per holder — see :meth:`ReplicatedStore.get_many`
    and :meth:`ChordRing.get_many`), so a warm feed costs roughly the
    slowest holder instead of the sum of all of them; cid-by-cid fetches
    remain dependent and still sum.
    """
    if limit_per_friend is not None and limit_per_friend < 0:
        raise ValueError("limit_per_friend must be >= 0")
    report = FeedReport()
    plan: List[Tuple[str, str]] = []   # (author, cid) still needing a fetch
    for name in sorted(reader.friends):
        friend = friends.get(name)
        if friend is None:
            continue
        try:
            reader.sync_timeline(friend)
        except IntegrityError as exc:
            report.violations.append((name, f"timeline: {exc}"))
            continue
        cids = reader.verified_cids(name)
        if limit_per_friend is not None:
            # not ``cids[-limit:]``: ``-0`` slices the whole list
            cids = cids[max(len(cids) - limit_per_friend, 0):]
        view = reader.views.get(name)
        for cid in cids:
            entry = lookup(reader.name, name, cid, view)
            if entry is not None:
                report.items.append(FeedItem(
                    post=entry.post, author=name,
                    result=ReadResult(entry.post, verified=True,
                                      degraded=False, source="cache")))
                continue
            plan.append((name, cid))
    blobs = fetch_many(reader.name, [cid for _, cid in plan]) if plan else {}
    for name, cid in plan:
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
            view = reader.views.get(name)
            if view is not None:
                insert(reader.name, name, cid, post, view,
                       version=got.version)
    report.items.sort(key=lambda item: (item.author, item.post.sequence))
    return report
