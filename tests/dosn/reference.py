"""Reference implementation: the cached feed as first written.

A cached ``DosnNetwork.feed`` now syncs and lists each friend once
(:func:`repro.dosn.feed.sync_friends`): ``assemble_feed`` hands that
listing to ``SocialPrefetcher.warm`` and then looks the same cids up in
the cache, and a new friendship warms each side from a one-author
listing.  What it replaced lives here, verbatim, as the oracle: a
prefetcher that syncs and lists every friend itself through two
callbacks (``view_of``, ``cids_of``), then an assembly that syncs and
lists every friend again.  ``test_feed_oracle.py`` holds the new feed
equal to it: the same ``FeedReport``, network statistics, counters,
spans and RNG states after every operation.

:func:`install` routes one network's cached feeds and befriend
prefetches through this module; everything else on that network is the
code under test.

:func:`verified_cids` is ``DosnUser.verified_cids`` as first written:
it decodes and de-duplicates the reader's whole view of the author on
every call, where the code under test remembers the listing and extends
it by the entries accepted since.  ``test_cid_listing_oracle.py`` holds
the two equal.
"""

from functools import partial
from typing import Callable, Dict, Iterable, List, Optional, Set, Tuple

from repro.cache.content import VerifiedContentCache
from repro.cache.prefetch import PREFETCH_DEPTH
from repro.dosn.feed import FeedItem, FeedReport
from repro.dosn.results import ReadResult
from repro.dosn.user import DosnUser, VerifiedPost
from repro.exceptions import AccessDeniedError, IntegrityError, ReproError
from repro.obs.metrics import MetricsRegistry


def verified_cids(reader: DosnUser, author: str) -> List[str]:
    """Content ids from the author's chain-verified timeline, in order,
    each at its first occurrence (a re-sealed post lists its cid again)."""
    view = reader.views.get(author)
    if view is None:
        return []
    seen: Set[str] = set()
    cids: List[str] = []
    for entry in view.entries:
        cid = entry.payload.decode()
        if cid not in seen:
            seen.add(cid)
            cids.append(cid)
    return cids


class ReferencePrefetcher:
    """Warms per-reader caches along social edges, syncing for itself."""

    def __init__(self, cache: VerifiedContentCache,
                 view_of: Callable[[str, str], object],
                 cids_of: Callable[[str, str], List[str]],
                 fetch_many: Callable[[str, List[str]], Dict[str, object]],
                 open_post: Callable[[str, str, bytes, str], object],
                 metrics: MetricsRegistry, tracer) -> None:
        self.cache = cache
        self._view_of = view_of
        self._cids_of = cids_of
        self._fetch_many = fetch_many
        self._open_post = open_post
        self.metrics = metrics
        self.tracer = tracer
        self.prefetched = 0

    def warm(self, reader: str, friends: Iterable[str]) -> int:
        """Prefetch ``friends``' newest posts into ``reader``'s cache.

        Returns how many posts were verified and cached.  Already-cached
        cids are skipped before any fetch is issued, so repeated warming
        is idempotent and (warm) free.
        """
        wanted: List[Tuple[str, str]] = []   # (author, cid), fetch order
        views: Dict[str, object] = {}
        for author in sorted(set(friends)):
            if author == reader:
                continue
            view = self._view_of(reader, author)
            if view is None:
                continue
            views[author] = view
            for cid in self._cids_of(reader, author)[-PREFETCH_DEPTH:]:
                if not self.cache.contains(reader, cid):
                    wanted.append((author, cid))
        if not wanted:
            return 0
        with self.tracer.span("cache.prefetch", reader=reader,
                              wanted=len(wanted)) as span:
            blobs = self._fetch_many(reader, [cid for _, cid in wanted])
            warmed = 0
            for author, cid in wanted:
                got = blobs.get(cid)
                if got is None or isinstance(got, Exception):
                    continue
                if got.degraded:
                    continue  # possibly-stale copies never enter the cache
                try:
                    post = self._open_post(reader, author, got.blob, cid)
                except ReproError:
                    continue
                self.cache.insert(reader, author, cid, post,
                                  views[author], version=got.version)
                warmed += 1
            span.set_attr("warmed", warmed)
        self.prefetched += warmed
        if warmed:
            self.metrics.inc("cache.prefetched", warmed)
        return warmed


def assemble_feed(reader: DosnUser, friends: Dict[str, DosnUser],
                  fetch_many: Callable[[str, List[str]], Dict[str, object]],
                  open_post: Callable[[str, bytes, str], VerifiedPost],
                  limit_per_friend: Optional[int] = None,
                  lookup=lambda reader, author, cid, view: None,
                  insert=lambda *entry, version=None: None) -> FeedReport:
    """Build ``reader``'s verified feed, syncing every friend first."""
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


def view_of(net, reader: str, author: str):
    """Sync and return ``reader``'s chain-verified view of ``author``;
    ``None`` (the cache then refuses to serve) when the author is
    unknown, unsynced, or their chain fails to extend the view."""
    user = net.users[reader]
    friend = net.users.get(author)
    if friend is not None:
        try:
            user.sync_timeline(friend)
        except IntegrityError:
            return None
    return user.views.get(author)


def reference_feed(net, reader: str,
                   limit_per_friend: Optional[int]) -> FeedReport:
    """Warm the reader's cache, then serve the feed from it."""
    net.prefetcher.warm(reader, net.users[reader].friends)
    return assemble_feed(
        net.users[reader], net.users, net._feed_fetch,
        partial(net._open_for, reader),
        limit_per_friend=limit_per_friend,
        lookup=net.cache.lookup, insert=net.cache.insert)


def reference_prefetch_pair(net, a: str, b: str) -> None:
    """Warm each side of a new friendship with the other's posts."""
    net.storage.ready()
    net.prefetcher.warm(a, (b,))
    net.prefetcher.warm(b, (a,))


def install(net) -> None:
    """Route ``net``'s cached feeds and befriend prefetches through the
    reference (``net`` must have been built with a caching config)."""
    net.prefetcher = ReferencePrefetcher(
        net.cache, view_of=partial(view_of, net),
        cids_of=lambda reader, author:
            net.users[reader].verified_cids(author),
        fetch_many=net._get_many, open_post=net._open_for,
        metrics=net.metrics, tracer=net.tracer)
    net._feed = partial(reference_feed, net)
    net._warm_pair = partial(reference_prefetch_pair, net)
