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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.cache.lru import LRUMap
from repro.obs.metrics import MetricsRegistry

__all__ = ["CacheEntry", "VerifiedContentCache"]


@dataclass
class CacheEntry:
    """One cached verified post plus its freshness evidence."""

    author: str
    #: the verified post object (a :class:`repro.dosn.user.VerifiedPost`)
    post: object
    #: author's chain head hash when this entry was (re)validated
    head: bytes
    #: how many chain entries the reader had verified at that point
    chain_len: int
    #: storage version that produced the post (quorum backends), if known
    version: Optional[int] = None


class VerifiedContentCache:
    """Per-reader LRU of verified posts, keyed by cid.

    The cache holds no cryptographic authority of its own: validation is
    delegated to the chain view the caller passes into :meth:`lookup` /
    :meth:`insert`, which must be the reader's *verified* replica of the
    author's timeline (or the author's own timeline for self-reads).
    Counters live in ``metrics`` alone (the fabric's registry; a private
    one when none is given): ``cache.hits`` / ``cache.misses`` /
    ``cache.invalidations`` / ``cache.evictions`` / ``cache.insertions``;
    the first four read back as properties.
    """

    def __init__(self, capacity_per_reader: int, metrics=None) -> None:
        self.capacity = capacity_per_reader
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._readers: Dict[str, LRUMap] = {}
        #: ``cache.*`` counter handles, each resolved at its first event
        self._counters: Dict[str, object] = {}

    def _count(self, name: str) -> None:
        counter = self._counters.get(name)
        if counter is None:
            counter = self._counters[name] = self.metrics.counter(
                f"cache.{name}")
        counter.value += 1

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
                           chain_len=len(view.entries), version=version)
        lru = self._lru(reader)
        before = lru.evictions
        lru.put(cid, entry)
        if lru.evictions > before:
            self._count("evictions")
        self._count("insertions")
        return entry

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        total = sum(len(lru) for lru in self._readers.values())
        return (f"VerifiedContentCache(readers={len(self._readers)}, "
                f"entries={total}, hits={self.hits}, misses={self.misses})")
