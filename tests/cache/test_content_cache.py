"""VerifiedContentCache: chain-head validated hits, evidence-based eviction.

The fake chain views here expose exactly the surface the cache consumes
— ``head_hash`` and ``entries`` whose items carry ``.payload`` (the cid
bytes an author's :class:`TimelineView` records per chain entry).
"""

from dataclasses import dataclass, field
from typing import List

import pytest

from repro.cache import CacheConfig, VerifiedContentCache
from repro.obs import MetricsRegistry


@dataclass
class FakeEntry:
    payload: bytes


@dataclass
class FakeView:
    """A stand-in for a reader's chain-verified TimelineView."""

    entries: List[FakeEntry] = field(default_factory=list)

    @property
    def head_hash(self) -> bytes:
        return b"head:" + b"|".join(e.payload for e in self.entries)

    def publish(self, cid: str) -> None:
        self.entries.append(FakeEntry(cid.encode()))


def served(post, author):
    """What a hit serves here: the entry's author and post."""
    return author, post


@pytest.fixture
def cache():
    return VerifiedContentCache(capacity_per_reader=4, serve=served)


def seeded(cache, reader="bob", author="alice", cid="c1", post="POST"):
    view = FakeView()
    view.publish(cid)
    cache.insert(reader, author, cid, post, view)
    return view


class TestLookupValidation:
    def test_hit_when_chain_unmoved(self, cache):
        view = seeded(cache)
        entry = cache.lookup("bob", "alice", "c1", view)
        assert entry is not None and entry.post == "POST"
        assert entry.served == ("alice", "POST")
        assert (cache.hits, cache.misses) == (1, 0)

    def test_miss_on_unknown_cid(self, cache):
        view = seeded(cache)
        assert cache.lookup("bob", "alice", "ghost", view) is None
        assert cache.misses == 1

    def test_miss_when_entry_belongs_to_other_author(self, cache):
        view = seeded(cache, author="alice")
        assert cache.lookup("bob", "mallory", "c1", view) is None
        assert cache.misses == 1 and cache.hits == 0

    def test_miss_when_no_verified_view(self, cache):
        seeded(cache)
        # freshness cannot be re-checked without a chain view: refuse
        assert cache.lookup("bob", "alice", "c1", None) is None
        assert cache.misses == 1
        assert cache.contains("bob", "c1")  # kept, just not served

    def test_chain_advance_without_republish_repins_and_hits(self, cache):
        view = seeded(cache)
        view.publish("c2")  # head moved, c1 untouched
        entry = cache.lookup("bob", "alice", "c1", view)
        assert entry is not None
        assert entry.head == view.head_hash  # re-pinned
        assert entry.chain_len == 2
        # the next lookup is an O(1) head comparison again
        assert cache.lookup("bob", "alice", "c1", view) is not None
        assert cache.hits == 2 and cache.invalidations == 0

    def test_republished_cid_is_evicted(self, cache):
        view = seeded(cache)
        view.publish("c1")  # the author overwrote c1: stale evidence
        assert cache.lookup("bob", "alice", "c1", view) is None
        assert cache.invalidations == 1 and cache.misses == 1
        assert not cache.contains("bob", "c1")

    def test_republish_scan_starts_at_pinned_chain_len(self, cache):
        # entry pinned at chain_len=2 must not be evicted by the cid's
        # own (older) chain entry
        view = FakeView()
        view.publish("c1")
        view.publish("c2")
        cache.insert("bob", "alice", "c1", "POST", view)
        view.publish("c3")
        assert cache.lookup("bob", "alice", "c1", view) is not None


class TestReaderIsolationAndCapacity:
    def test_readers_do_not_share_entries(self, cache):
        view = seeded(cache, reader="bob")
        assert cache.lookup("carol", "alice", "c1", view) is None
        assert cache.contains("bob", "c1")
        assert not cache.contains("carol", "c1")

    def test_per_reader_capacity_evicts_oldest(self):
        cache = VerifiedContentCache(capacity_per_reader=2, serve=served)
        view = FakeView()
        for cid in ("c1", "c2", "c3"):
            view.publish(cid)
            cache.insert("bob", "alice", cid, cid.upper(), view)
        assert cache.contains("bob", "c2") and cache.contains("bob", "c3")
        assert not cache.contains("bob", "c1")
        assert cache.evictions == 1


class TestMetricsMirror:
    def test_counters_mirrored_into_registry(self):
        metrics = MetricsRegistry()
        cache = VerifiedContentCache(capacity_per_reader=4, serve=served,
                                     metrics=metrics)
        view = seeded(cache)
        cache.lookup("bob", "alice", "c1", view)    # hit
        cache.lookup("bob", "alice", "ghost", view)  # miss
        view.publish("c1")
        cache.lookup("bob", "alice", "c1", view)    # invalidation + miss
        assert metrics.get_counter_value("cache.hits") == 1
        assert metrics.get_counter_value("cache.misses") == 2
        assert metrics.get_counter_value("cache.invalidations") == 1
        assert metrics.get_counter_value("cache.insertions") == 1


class TestCacheConfig:
    def test_defaults(self):
        config = CacheConfig()
        assert config.capacity_per_reader == 256
        assert config.caching

    def test_capacity_zero_disables_caching_not_batching(self):
        config = CacheConfig(capacity_per_reader=0)
        assert not config.caching
