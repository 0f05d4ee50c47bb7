"""What a warm feed costs, counted — a perf gate with no clock in it.

Every cache hit is re-checked against the author's chain-verified head.
That check reads ``TimelineView.head_hash``, which used to re-hash the
(immutable) last entry on every access: one SHA-256 per served cid per
feed.  The counts below repeat exactly for a seed, so they are asserted
as equalities: a fully warm feed hashes nothing, verifies nothing,
decodes no chain payload and sends nothing; one new post costs one
entry hash, one signature check and one payload decode (its chain
entry, the post's only signature), once.

A cached feed also visits each friend once: one sync and one listing of
verified cids per friend serve both the prefetcher and the cache lookups
(the two-pass feed made two of each), through one call of the class's
``SocialPrefetcher.warm`` — what the wall-clock harness wraps.  A feed
whose friends' chains and reader's cache have not moved since a steady
feed (clean, every item a hit, nothing to prefetch) is replayed: it
syncs and lists each friend and does nothing else — no warming, no
lookup, no hash, no verify, no message — and counts its items as hits.

``payload_text`` calls and payload decodes are counted apart: a call
that finds the entry's remembered string decodes nothing.  A warm feed
makes no call at all — a listing that walked the whole chain again
would, even with every payload remembered — and a new post costs two
calls (the reader's listing, and the opened post naming itself with the
chain's cid string) but one decode.
"""

import dataclasses
import sys

import pytest

from repro.cache import CacheConfig, SocialPrefetcher, VerifiedContentCache
from repro.crypto import hashing
from repro.crypto.signatures import SchnorrPublicKey
from repro.dosn import DosnConfig, DosnNetwork
from repro.dosn.feed import FeedItem
from repro.dosn.results import ReadResult
from repro.dosn.user import DosnUser
from repro.integrity.hashchain import ChainEntry

CACHE_FAMILIES = ("hits", "misses", "invalidations", "insertions",
                  "evictions")


def small_net(**cache_fields):
    net = DosnNetwork(config=DosnConfig(architecture="dht", seed=5,
                                        cache=CacheConfig(**cache_fields)))
    for name in ("alice", "bob", "carol", "dave"):
        net.add_user(name)
    net.befriend("alice", "bob")
    net.befriend("alice", "carol")
    return net


class Counts:
    """Call counts of the three kinds of work a feed can do."""

    def __init__(self, monkeypatch, net):
        self.net = net
        original = hashing.digest_many

        def digest_many(parts):
            self.digests += 1
            return original(parts)

        # modules bind ``digest_many`` by name at import: patch each binding
        for module in list(sys.modules.values()):
            if getattr(module, "digest_many", None) is original:
                monkeypatch.setattr(module, "digest_many", digest_many)

        hash_fields, verify = ChainEntry._hash_fields, SchnorrPublicKey.verify
        payload_text = ChainEntry.payload_text

        def counted_hash_fields(entry):
            self.entry_hashes += 1
            return hash_fields(entry)

        def counted_payload_text(entry):
            self.payload_texts += 1
            self.payload_decodes += entry._text is None
            return payload_text(entry)

        def counted_verify(key, message, signature):
            self.verifies += 1
            return verify(key, message, signature)

        monkeypatch.setattr(ChainEntry, "_hash_fields", counted_hash_fields)
        monkeypatch.setattr(SchnorrPublicKey, "verify", counted_verify)
        monkeypatch.setattr(ChainEntry, "payload_text", counted_payload_text)
        self.reset()

    def reset(self):
        self.digests = self.entry_hashes = self.verifies = 0
        self.payload_texts = self.payload_decodes = 0
        self.messages_before = self.net.network.stats.messages

    def taken(self):
        return {"digest_many": self.digests,
                "entry_hash": self.entry_hashes,
                "verify": self.verifies,
                "payload_text": self.payload_texts,
                "payload_decode": self.payload_decodes,
                "messages": (self.net.network.stats.messages
                             - self.messages_before)}


NOTHING = {"digest_many": 0, "entry_hash": 0, "verify": 0,
           "payload_text": 0, "payload_decode": 0, "messages": 0}


class TestWarmFeedCountRatchet:
    def test_a_warm_feed_hashes_verifies_and_sends_nothing(self, monkeypatch):
        net = small_net()
        net.post("bob", "b1")
        net.post("bob", "b2")
        net.post("carol", "c1")
        cold = net.feed("alice")
        assert cold.clean and len(cold.items) == 3
        counts = Counts(monkeypatch, net)

        warm = net.feed("alice")
        assert warm.clean and len(warm.items) == 3
        assert all(item.result.source == "cache" for item in warm.items)
        assert counts.taken() == NOTHING

        net.post("bob", "b3")
        counts.reset()
        after_post = net.feed("alice")
        assert after_post.clean and len(after_post.items) == 4
        taken = counts.taken()
        # the new chain entry's hash, signature and payload, once each:
        # the entry that lists the cid is the post's only signature, and
        # the reader's cid listing decodes only the entries it lacks; the
        # opened post reads the listing's decoded string back
        assert taken["entry_hash"] == 1
        assert taken["verify"] == 1
        assert taken["payload_text"] == 2
        assert taken["payload_decode"] == 1
        assert taken["messages"] > 0
        # signed_bytes / content_id hash too
        assert taken["digest_many"] > taken["entry_hash"]

        # the opened post is named by its chain entry's own cid string
        bob_cids = net.users["alice"].verified_cids("bob")
        assert [item.post.content_id for item in after_post.items
                if item.author == "bob"][-1] is bob_cids[-1]

        counts.reset()
        again = net.feed("alice")
        assert again.clean and len(again.items) == 4
        assert counts.taken() == NOTHING

    def test_a_warm_read_hashes_nothing_either(self, monkeypatch):
        net = small_net()
        cid = net.post("bob", "hello")
        assert net.read("alice", "bob", cid).source != "cache"
        counts = Counts(monkeypatch, net)
        assert net.read("alice", "bob", cid).source == "cache"
        assert counts.taken() == NOTHING


class TestCacheCounterHandles:
    def families(self, net):
        return sorted({instrument.name for instrument in net.metrics
                       if instrument.name.startswith("cache.")})

    def test_no_family_exists_before_its_first_event(self):
        net = small_net()
        assert self.families(net) == []
        cid = net.post("bob", "b1")
        assert self.families(net) == []
        # ``read`` runs no prefetch, so the cold copy is a miss first
        net.read("alice", "bob", cid)                # a miss, an insertion
        assert self.families(net) == ["cache.insertions", "cache.misses"]
        net.feed("alice")                            # the first hit
        assert self.families(net) == ["cache.hits", "cache.insertions",
                                      "cache.misses"]
        net.repost("bob", net.post("bob", "b2"))
        net.feed("alice")
        net.repost("bob", net.users["alice"].verified_cids("bob")[0])
        net.feed("alice")                            # evicts the stale copy
        assert "cache.invalidations" in self.families(net)
        assert "cache.evictions" not in self.families(net)

    @pytest.mark.parametrize("capacity", [2, 256])
    def test_registry_counters_equal_the_caches_own(self, capacity):
        net = small_net(capacity_per_reader=capacity)
        cids = []
        for round_ in range(4):
            for author in ("bob", "carol"):
                cids.append(net.post(author, f"{author} {round_}"))
            net.feed("alice")
            net.repost("bob", cids[0])
            net.feed("alice", limit_per_friend=2)
            net.read("alice", "carol", cids[1])
            net.feed("bob")
        cache = net.cache
        assert cache.hits and cache.misses and cache.invalidations
        assert (cache.evictions > 0) == (capacity == 2)
        for name in CACHE_FAMILIES:
            assert (net.metrics.get_counter_value(f"cache.{name}")
                    == getattr(cache, name)), name
        if capacity != 2:
            assert not net.metrics.family("cache.evictions")


class TestOnePassPerFriend:
    @staticmethod
    def count_calls(monkeypatch, cls, name):
        calls = []
        original = getattr(cls, name)

        def counted(*args, **kwargs):
            calls.append(args[1:])
            return original(*args, **kwargs)

        monkeypatch.setattr(cls, name, counted)
        return calls

    @pytest.mark.parametrize("more", [(), ("dave",)])
    def test_a_feed_syncs_and_lists_each_friend_once(self, monkeypatch,
                                                     more):
        net = small_net()
        for name in more:
            net.befriend("alice", name)
        for name in ("bob", "carol", "dave"):
            net.post(name, f"by {name}")
        syncs = self.count_calls(monkeypatch, DosnUser, "sync_timeline")
        listings = self.count_calls(monkeypatch, DosnUser, "verified_cids")
        warms = self.count_calls(monkeypatch, SocialPrefetcher, "warm")
        k = len(net.users["alice"].friends)
        for round_ in ("cold", "warm"):
            del syncs[:], listings[:], warms[:]
            feed = net.feed("alice")
            assert feed.clean and len(feed.items) == k, round_
            assert len(syncs) == len(listings) == k, round_
            assert [reader for reader, _listing in warms] == ["alice"]
        assert all(item.result.source == "cache" for item in feed.items)

    @pytest.mark.parametrize("limit", [None, 0, 1])
    @pytest.mark.parametrize("more", [(), ("dave",)])
    def test_a_third_feed_is_replayed(self, monkeypatch, more, limit):
        net = small_net()
        for name in more:
            net.befriend("alice", name)
        for name in ("bob", "carol", "dave"):
            net.post(name, f"by {name}")
            net.post(name, f"again by {name}")
        net.feed("alice", limit_per_friend=limit)             # cold
        steady = net.feed("alice", limit_per_friend=limit)    # warm, steady
        assert steady.clean
        assert all(item.result.source == "cache" for item in steady.items)
        syncs = self.count_calls(monkeypatch, DosnUser, "sync_timeline")
        listings = self.count_calls(monkeypatch, DosnUser, "verified_cids")
        warms = self.count_calls(monkeypatch, SocialPrefetcher, "warm")
        lookups = self.count_calls(monkeypatch, VerifiedContentCache,
                                   "lookup")
        counts = Counts(monkeypatch, net)
        lru = net.cache._readers["alice"]
        order, version, hits = list(lru), lru.version, net.cache.hits
        replayed = net.feed("alice", limit_per_friend=limit)
        k = len(net.users["alice"].friends)
        assert len(syncs) == len(listings) == k
        assert warms == [] and lookups == []
        assert counts.taken() == NOTHING
        assert net.cache.hits == hits + len(steady.items)
        assert (list(lru), lru.version) == (order, version)
        assert replayed.clean and replayed is not steady
        assert replayed.items is not steady.items
        assert all(a is b for a, b in zip(replayed.items, steady.items))
        assert len(replayed.items) == len(steady.items) == k * {
            None: 2, 0: 0, 1: 1}[limit]

    def test_feed_items_and_read_results_have_no_dict(self):
        net = small_net()
        net.post("bob", "b1")
        net.feed("alice")
        items = net.feed("alice").items
        assert items and all(isinstance(item, FeedItem) for item in items)
        for item in items:
            assert not hasattr(item, "__dict__")
            assert not hasattr(item.result, "__dict__")
        assert not hasattr(ReadResult(items[0].post), "__dict__")
        with pytest.raises(ValueError, match="source"):
            ReadResult(items[0].post, source="elsewhere")

    def test_a_replayed_item_cannot_be_changed(self):
        # a replay hands every later feed of the reader the same items,
        # so a caller's edit to one feed must not reach the next
        net = small_net()
        net.post("bob", "b1")
        net.feed("alice")
        steady = net.feed("alice")
        replayed = net.feed("alice")
        item = replayed.items[0]
        assert item is steady.items[0]
        with pytest.raises(dataclasses.FrozenInstanceError):
            item.result = ReadResult(item.post, source="bare")
        with pytest.raises(dataclasses.FrozenInstanceError):
            item.result.source = "bare"
        with pytest.raises(dataclasses.FrozenInstanceError):
            item.author = "mallory"
        again = net.feed("alice")
        assert again.items[0] is item
        assert (item.author, item.result.source) == ("bob", "cache")

    def test_every_hit_on_an_entry_serves_its_one_item(self, monkeypatch):
        # a read's hit moves the reader's LRU, so the next feed is
        # re-assembled, not replayed; its hits still build no item
        net = small_net()
        cid = net.post("bob", "b1")
        net.post("carol", "c1")
        net.feed("alice")
        steady = net.feed("alice")
        read = net.read("alice", "bob", cid)
        assert read.source == "cache"
        assert read is steady.items[0].result
        built = self.count_calls(monkeypatch, FeedItem, "__init__")
        lookups = self.count_calls(monkeypatch, VerifiedContentCache,
                                   "lookup")
        again = net.feed("alice")
        assert len(lookups) == 2 and built == []
        assert again.clean and again.items is not steady.items
        assert all(a is b for a, b in zip(again.items, steady.items))
        assert len(again.items) == len(steady.items) == 2
