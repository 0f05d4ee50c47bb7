"""Social prefetch: warm a reader's cache with friends' timeline heads.

The social graph *is* the access predictor in an OSN — what a reader
fetches next is overwhelmingly the newest posts of their friends
(the observation socially-aware DHT placement builds on).  The
prefetcher exploits it on the read side: on ``befriend`` and at the
start of every cached feed it batch-fetches the newest posts of a
reader's friends through :meth:`StorageBackend.get_many`, opens them
through the normal decrypt + verify pipeline, and seeds the
:class:`~repro.cache.content.VerifiedContentCache` — so the feed's
lookups (and the reader's next ``read``) are served warm.

Prefetching is best-effort: unavailable or unverifiable posts are simply
skipped (the feed path will report them properly), and nothing enters
the cache without passing the full verification pipeline first.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Tuple

from repro.cache.content import VerifiedContentCache
from repro.exceptions import ReproError
from repro.obs.metrics import MetricsRegistry

__all__ = ["SocialPrefetcher"]

#: how many of a friend's newest posts a prefetch pulls
PREFETCH_DEPTH = 2


class SocialPrefetcher:
    """Warms per-reader caches along social edges.

    It syncs nothing itself: :meth:`warm` takes the friends a caller has
    already synced and listed (:func:`repro.dosn.feed.sync_friends`), so
    a cached feed visits each friend once.  The two callbacks decouple
    the prefetcher from :class:`~repro.dosn.api.DosnNetwork` (which wires
    them to its storage backend and protection stack):

    * ``fetch_many(reader, cids)`` — the batched storage read; returns
      ``cid -> FetchedBlob | exception``;
    * ``open_post(reader, author, blob, cid)`` — decrypt + verify one
      fetched blob (raises on violation).

    ``metrics`` and ``tracer`` are the network's: a warming that fetches
    opens one ``cache.prefetch`` span and counts ``cache.prefetched``.
    ``requested`` counts the posts every warming asked storage for, so an
    unchanged count says a warming wanted nothing (every listed head was
    cached already).
    """

    def __init__(self, cache: VerifiedContentCache,
                 fetch_many: Callable[[str, List[str]], Dict[str, object]],
                 open_post: Callable[[str, str, bytes, str], object],
                 metrics: MetricsRegistry, tracer) -> None:
        self.cache = cache
        self._fetch_many = fetch_many
        self._open_post = open_post
        self.metrics = metrics
        self.tracer = tracer
        self.prefetched = 0
        self.requested = 0

    def warm(self, reader: str,
             listing: Iterable[Tuple[str, object, Tuple[str, ...]]]) -> int:
        """Prefetch the listed friends' newest posts into ``reader``'s cache.

        ``listing`` holds ``(author, view, verified_cids)`` per synced
        friend, in order.  Returns how many posts were verified and
        cached.  Already-cached cids are skipped before any fetch is
        issued, so repeated warming is idempotent and (warm) free.
        """
        wanted: List[Tuple[str, str, object]] = []   # fetch order
        for author, view, cids in listing:
            for cid in cids[-PREFETCH_DEPTH:]:
                if not self.cache.contains(reader, cid):
                    wanted.append((author, cid, view))
        if not wanted:
            return 0
        self.requested += len(wanted)
        with self.tracer.span("cache.prefetch", reader=reader,
                              wanted=len(wanted)) as span:
            blobs = self._fetch_many(reader, [cid for _, cid, _ in wanted])
            warmed = 0
            for author, cid, view in wanted:
                got = blobs.get(cid)
                if got is None or isinstance(got, Exception):
                    continue
                if got.degraded:
                    continue  # possibly-stale copies never enter the cache
                try:
                    post = self._open_post(reader, author, got.blob, cid)
                except ReproError:
                    continue
                self.cache.insert(reader, author, cid, post, view,
                                  version=got.version)
                warmed += 1
            span.set_attr("warmed", warmed)
        self.prefetched += warmed
        if warmed:
            self.metrics.inc("cache.prefetched", warmed)
        return warmed
