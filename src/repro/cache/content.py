"""The per-reader verified-content cache, invalidated by chain heads.

Socially-aware caching is what makes P2P OSN feeds viable at scale
(Nasir et al.; LibreSocial): a reader's feed re-fetches mostly-unchanged
friend timelines, so the decrypt + verify + fetch work is redundant for
every post the reader already verified.  This cache keeps those verified
posts per reader — but **never** serves a byte without re-checking it
against the author's hash-chain head first:

* a cache entry records the author's verified chain position (head hash
  and entry count) at insert time;
* a hit is only served after comparing that position against the
  reader's *current* chain-verified view of the author
  (:class:`~repro.integrity.hashchain.TimelineView`);
* if the chain advanced, the new entries are scanned — an author
  re-listing the cached cid means the stored object was overwritten
  (re-sealed / re-encrypted), so the stale copy is **evicted** and the
  read falls through to the verified fetch path;
* if the chain advanced without touching the cid, the entry is re-pinned
  to the new head and served.

The chain view itself is chain-and-signature verified on acceptance
(:meth:`TimelineView.accept`), so a hit's freshness evidence carries the
author's signature — a Byzantine holder cannot forge it, which is what
lets E16 claim *zero unverified bytes served from cache*.

A feed whose inputs have not moved is replayed, not re-assembled.  The
cache remembers each reader's last *steady* feed — clean, every item a
hit, and the prefetcher wanted nothing (every cid among each friend's
newest ``PREFETCH_DEPTH`` was cached before the feed) — with its key,
``limit_per_friend`` plus ``(name, len(view.entries))`` for each synced
friend in sync order, and its reader's :attr:`LRUMap.version` after it.
A later feed syncs every friend first (that is the integrity check, and
a friend whose chain fails is reported as always, and left out of the
key); when both the key and the version match,
:meth:`~VerifiedContentCache.replay` serves the remembered items and
counts them as hits.  That is exactly what re-assembling would do:
views only append, so an equal key is an equal listing and an equal
head per friend; an equal version is the same entries in the same
recency order; the steady feed's lookups were its reader's last LRU
touches, so the same lookups in the same order would reorder nothing,
re-pin nothing, fetch nothing and draw nothing.  A repost grows the
author's view, which changes the key, so a stale copy is still evicted
on the full path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

from repro.cache.lru import LRUMap
from repro.obs.metrics import MetricsRegistry

__all__ = ["CacheEntry", "VerifiedContentCache"]

#: what a reader with no steady feed remembers: no feed's key is ``()``
_NO_FEED: Tuple[tuple, int, tuple] = ((), 0, ())


@dataclass(slots=True)
class CacheEntry:
    """One cached verified post plus its freshness evidence (one per
    reader and cached cid: ``slots`` spare each a ``__dict__``)."""

    author: str
    #: the verified post object (a :class:`repro.dosn.user.VerifiedPost`)
    post: object
    #: author's chain head hash when this entry was (re)validated
    head: bytes
    #: how many chain entries the reader had verified at that point
    chain_len: int
    #: storage version that produced the post (quorum backends), if known
    version: Optional[int] = None
    #: what a hit on this entry serves, built once when it is inserted
    served: object = None


class VerifiedContentCache:
    """Per-reader LRU of verified posts, keyed by cid.

    The cache holds no cryptographic authority of its own: validation is
    delegated to the chain view the caller passes into :meth:`lookup` /
    :meth:`insert`, which must be the reader's *verified* replica of the
    author's timeline (or the author's own timeline for self-reads).
    Counters live in ``metrics`` alone (the fabric's registry; a private
    one when none is given): ``cache.hits`` / ``cache.misses`` /
    ``cache.invalidations`` / ``cache.evictions`` / ``cache.insertions``;
    the first four read back as properties.  :meth:`remember` and
    :meth:`replay` keep and serve each reader's last steady feed (the
    rule is in this module's docstring).

    ``serve(post, author)`` makes each entry's :attr:`CacheEntry.served`
    when it is inserted — for a network, the feed item a hit serves
    (:func:`repro.dosn.feed.cache_hit`), so every hit on the entry hands
    out that one immutable value instead of building its own.
    """

    def __init__(self, capacity_per_reader: int,
                 serve: Callable[[object, str], object],
                 metrics=None) -> None:
        self.capacity = capacity_per_reader
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._serve = serve
        self._readers: Dict[str, LRUMap] = {}
        #: ``cache.*`` counter handles, each resolved at its first event
        self._counters: Dict[str, object] = {}
        #: reader -> (key, LRU version, items) of their last steady feed
        self._steady: Dict[str, Tuple[tuple, int, tuple]] = {}

    def _count(self, name: str, events: int = 1) -> None:
        counter = self._counters.get(name)
        if counter is None:
            counter = self._counters[name] = self.metrics.counter(
                f"cache.{name}")
        counter.value += events

    def _lru(self, reader: str) -> LRUMap:
        lru = self._readers.get(reader)
        if lru is None:
            lru = LRUMap(self.capacity)
            self._readers[reader] = lru
        return lru

    # the registry is the one store: these read it and create nothing,
    # so no ``cache.*`` family exists before its first event
    @property
    def hits(self) -> int:
        """Validated hits served."""
        return self.metrics.get_counter_value("cache.hits")

    @property
    def misses(self) -> int:
        """Lookups that fell through to the verified fetch path."""
        return self.metrics.get_counter_value("cache.misses")

    @property
    def invalidations(self) -> int:
        """Entries evicted because the author re-listed their cid."""
        return self.metrics.get_counter_value("cache.invalidations")

    @property
    def insertions(self) -> int:
        """Verified posts cached."""
        return self.metrics.get_counter_value("cache.insertions")

    @property
    def evictions(self) -> int:
        """Entries pushed out by capacity pressure, across all readers."""
        return sum(lru.evictions for lru in self._readers.values())

    def contains(self, reader: str, cid: str) -> bool:
        """Whether an entry exists (no validation, no counters)."""
        return cid in self._readers.get(reader, ())

    # -- the hot path ---------------------------------------------------------

    def lookup(self, reader: str, author: str, cid: str,
               view) -> Optional[CacheEntry]:
        """A validated hit for ``cid``, or ``None`` (miss / invalidated).

        ``view`` is the reader's current chain-verified view of the
        author (anything exposing ``head_hash`` and ``entries``).  Every
        hit is re-checked against it — an entry is served only when the
        author's chain either has not moved or provably did not re-list
        the cid.
        """
        lru = self._readers.get(reader)
        entry = lru.get(cid) if lru is not None else None
        if entry is None or entry.author != author or view is None:
            # Not cached for this author, or no verified view of the author
            # to re-check freshness against: the cache refuses to serve.
            self._count("misses")
            return None
        if view.head_hash != entry.head:
            marker = cid.encode()
            republished = any(e.payload == marker
                              for e in view.entries[entry.chain_len:])
            if republished:
                # The author overwrote this cid since we cached it:
                # the copy is provably stale — evict and miss.
                lru.remove(cid)
                self._count("invalidations")
                self._count("misses")
                return None
            # Chain advanced without touching the cid: re-pin the
            # freshness evidence so the next check is O(1) again.
            entry.head = view.head_hash
            entry.chain_len = len(view.entries)
        self._count("hits")
        return entry

    def insert(self, reader: str, author: str, cid: str, post,
               view, version: Optional[int] = None) -> CacheEntry:
        """Cache a verified post, pinned to the author's current head."""
        entry = CacheEntry(author=author, post=post,
                           head=view.head_hash,
                           chain_len=len(view.entries), version=version,
                           served=self._serve(post, author))
        lru = self._lru(reader)
        before = lru.evictions
        lru.put(cid, entry)
        if lru.evictions > before:
            self._count("evictions")
        self._count("insertions")
        return entry

    # -- the steady feed ------------------------------------------------------

    @staticmethod
    def feed_key(limit_per_friend, listing) -> tuple:
        """What a feed over ``listing`` (``(author, view, cids)`` per
        synced friend, in sync order) depends on besides its reader's LRU."""
        return (limit_per_friend,
                *[(name, len(view.entries)) for name, view, _ in listing])

    def replay(self, reader: str, key: tuple, report) -> bool:
        """Serve ``reader``'s remembered steady feed into ``report``.

        ``report`` is a fresh :class:`~repro.dosn.feed.FeedReport` holding
        what the feed's sync found (a friend whose chain failed to sync is
        in its violations, not in ``key``).  Replays only when ``key`` is
        the remembered feed's and the reader's LRU is at the version that
        feed left it at; the items then count as hits, as their lookups
        would.  ``False`` (nothing touched) otherwise.
        """
        memo_key, version, items = self._steady.get(reader, _NO_FEED)
        if memo_key != key or self._readers[reader].version != version:
            return False
        report.items.extend(items)
        if items:
            self._count("hits", len(items))
        return True

    def remember(self, reader: str, key: tuple, report) -> None:
        """Keep ``report`` as ``reader``'s steady feed under ``key``, if it
        is clean and every item is a hit.

        Call it only after a feed whose prefetcher wanted nothing.
        """
        items = report.items
        if report.clean and all(item.result.source == "cache"
                                for item in items):
            self._steady[reader] = (key, self._lru(reader).version,
                                    tuple(items))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        total = sum(len(lru) for lru in self._readers.values())
        return (f"VerifiedContentCache(readers={len(self._readers)}, "
                f"entries={total}, hits={self.hits}, misses={self.misses})")
