"""Social prefetch: warm a reader's cache with friends' timeline heads.

The social graph *is* the access predictor in an OSN — what a reader
fetches next is overwhelmingly the newest posts of their friends
(the observation socially-aware DHT placement builds on).  The
prefetcher exploits it on the read side: on ``befriend`` (and on
demand) it batch-fetches the newest posts of a reader's friends through
:meth:`StorageBackend.get_many`, opens them through the normal
decrypt + verify pipeline, and seeds the
:class:`~repro.cache.content.VerifiedContentCache` — so the reader's
next ``feed`` is served warm.

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

    The four callbacks decouple the prefetcher from
    :class:`~repro.dosn.api.DosnNetwork` (which wires them to its users,
    storage backend and protection stack):

    * ``view_of(reader, author)`` — sync and return the reader's
      chain-verified view of the author (or ``None``);
    * ``cids_of(reader, author)`` — the cids on that verified view, in
      order (:meth:`DosnUser.verified_cids`);
    * ``fetch_many(reader, cids)`` — the batched storage read; returns
      ``cid -> FetchedBlob | exception``;
    * ``open_post(reader, author, blob, cid)`` — decrypt + verify one
      fetched blob (raises on violation).

    ``metrics`` and ``tracer`` are the network's: a warming that fetches
    opens one ``cache.prefetch`` span and counts ``cache.prefetched``.
    """

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
