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

Two fetch strategies share the same verification semantics:

* the **sequential** path (default): sync a friend, fetch and open each
  of their posts, move to the next friend — one storage round-trip per
  post.  This is the original loop, kept byte-identical for the
  committed experiment baselines;
* the **batched** path (``fetch_many=``): sync *all* friends first, then
  fetch every still-needed cid in one
  :meth:`~repro.dosn.storage.StorageBackend.get_many` call (one route /
  RPC per holder instead of one per post), optionally consulting a
  :class:`~repro.cache.VerifiedContentCache` so unchanged posts skip the
  fetch + decrypt + verify entirely.  Cache hits are only served after
  re-checking the entry against the friend's *current* chain-verified
  head — stale copies are evicted, never shown.

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
from repro.exceptions import (AccessDeniedError, IntegrityError, ReproError,
                              StorageError)


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

    def from_source(self, source: str) -> List[FeedItem]:
        """The entries whose bytes came from ``source`` (cache/quorum/bare)."""
        return [item for item in self.items
                if item.result is not None and item.result.source == source]


def _provenance(blob) -> Tuple[bytes, str, bool, Optional[int]]:
    """Unpack a fetch return: raw bytes or a FetchedBlob-like carrier."""
    payload = getattr(blob, "blob", blob)
    return (payload, getattr(blob, "source", "bare"),
            getattr(blob, "degraded", False),
            getattr(blob, "version", None))


def assemble_feed(reader: DosnUser, friends: Dict[str, DosnUser],
                  fetch: Callable[[str, str], bytes],
                  limit_per_friend: Optional[int] = None,
                  open_post: Optional[
                      Callable[[str, bytes, str], VerifiedPost]] = None,
                  fetch_many: Optional[
                      Callable[[str, List[str]], Dict[str, object]]] = None,
                  cache=None) -> FeedReport:
    """Build ``reader``'s verified feed.

    ``fetch(reader_name, cid) -> blob`` abstracts the storage backend
    (plain bytes or a :class:`~repro.dosn.storage.FetchedBlob` both
    work); ``open_post(author, blob, cid) -> VerifiedPost`` abstracts the
    decrypt+verify pipeline (defaults to the reader's own
    :meth:`~repro.dosn.user.DosnUser.open_post` — networks with a
    :class:`~repro.stack.pipeline.ProtectionStack` pass their stack's
    ACL/integrity read path here).  For each friend: sync + chain-verify
    their timeline, then fetch, decrypt and signature-verify each
    referenced post.

    Passing ``fetch_many(reader_name, cids) -> {cid: blob | exception}``
    switches to the batched strategy; ``cache`` (a
    :class:`~repro.cache.VerifiedContentCache`) additionally serves
    chain-validated hits without fetching, and is seeded with every post
    this assembly verifies (degraded reads are never cached).

    Latency model: the feed inherits whatever the storage backend pays.
    The batched strategy's single ``fetch_many`` rides the backend's
    parallel fan-out (one overlapped probe per holder — see
    :meth:`ReplicatedStore.get_many` and :meth:`ChordRing.get_many`), so
    a warm batched feed costs roughly the slowest holder instead of the
    sum of all of them; the sequential strategy's per-cid fetches remain
    dependent and still sum.
    """
    if open_post is None:
        open_post = (lambda author, blob, cid:
                     reader.open_post(author, blob, expected_cid=cid))
    if fetch_many is None and cache is not None:
        # Cache without a batch-capable backend: emulate the batched
        # contract sequentially so there is one cached code path.
        def fetch_many(r: str, cids: List[str]) -> Dict[str, object]:
            out: Dict[str, object] = {}
            for cid in cids:
                if cid in out:
                    continue
                try:
                    out[cid] = fetch(r, cid)
                except ReproError as exc:
                    out[cid] = exc
            return out
    if fetch_many is not None:
        return _assemble_batched(reader, friends, fetch_many,
                                 limit_per_friend, open_post, cache)
    report = FeedReport()
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
            cids = cids[-limit_per_friend:]
        for cid in cids:
            try:
                blob = fetch(reader.name, cid)
            except (StorageError, ReproError) as exc:
                report.unavailable.append((cid, str(exc)))
                continue
            payload, source, degraded, _ = _provenance(blob)
            try:
                post = open_post(name, payload, cid)
            except (IntegrityError, AccessDeniedError) as exc:
                report.violations.append((name, f"{cid}: {exc}"))
                continue
            report.items.append(FeedItem(
                post=post, author=name,
                result=ReadResult(post, verified=True, degraded=degraded,
                                  source=source)))
    report.items.sort(key=lambda item: (item.author, item.post.sequence))
    return report


def _assemble_batched(reader: DosnUser, friends: Dict[str, DosnUser],
                      fetch_many: Callable[[str, List[str]],
                                           Dict[str, object]],
                      limit_per_friend: Optional[int],
                      open_post: Callable[[str, bytes, str], VerifiedPost],
                      cache) -> FeedReport:
    """The batched strategy: sync everyone, then fetch misses in one call."""
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
            cids = cids[-limit_per_friend:]
        for cid in cids:
            if cache is not None:
                entry = cache.lookup(reader.name, name, cid,
                                     reader.views.get(name))
                if entry is not None:
                    report.items.append(FeedItem(
                        post=entry.post, author=name,
                        result=ReadResult(entry.post, verified=True,
                                          degraded=False, source="cache")))
                    continue
            plan.append((name, cid))
    blobs: Dict[str, object] = {}
    if plan:
        blobs = fetch_many(reader.name, [cid for _, cid in plan])
    for name, cid in plan:
        got = blobs.get(cid)
        if got is None or isinstance(got, Exception):
            report.unavailable.append(
                (cid, str(got) if got is not None
                 else "missing from batched fetch"))
            continue
        payload, source, degraded, version = _provenance(got)
        try:
            post = open_post(name, payload, cid)
        except (IntegrityError, AccessDeniedError) as exc:
            report.violations.append((name, f"{cid}: {exc}"))
            continue
        report.items.append(FeedItem(
            post=post, author=name,
            result=ReadResult(post, verified=True, degraded=degraded,
                              source=source)))
        if cache is not None and not degraded:
            view = reader.views.get(name)
            if view is not None:
                cache.insert(reader.name, name, cid, post, view,
                             version=version)
    report.items.sort(key=lambda item: (item.author, item.post.sequence))
    return report
