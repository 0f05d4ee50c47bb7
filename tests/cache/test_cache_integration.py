"""End-to-end cache behavior through DosnNetwork (the E16 hot path).

These tests pin the headline E16 claims at unit scale: a warm feed is
served entirely from the verified cache with zero network messages, the
prefetcher warms on befriend, and batching works without caching
(capacity 0).
"""

import pytest

from repro.cache import CacheConfig
from repro.dosn import DosnConfig, DosnNetwork
from repro.dosn.feed import sync_friends


def cached_net(architecture="dht", seed=5, cache=None, **overrides):
    config = DosnConfig(architecture=architecture, seed=seed,
                        cache=cache or CacheConfig(), **overrides)
    net = DosnNetwork(config=config)
    for name in ("alice", "bob", "carol", "dave"):
        net.add_user(name)
    net.befriend("alice", "bob")
    net.befriend("alice", "carol")
    return net


class TestWarmFeed:
    @pytest.mark.parametrize("arch", ["central", "dht", "federation",
                                      "local"])
    def test_second_feed_is_all_cache_and_message_free(self, arch):
        net = cached_net(architecture=arch)
        net.post("bob", "b1")
        net.post("bob", "b2")
        net.post("carol", "c1")
        cold = net.feed("alice")
        assert cold.clean and len(cold.items) == 3
        before = net.network.stats.messages
        warm = net.feed("alice")
        assert warm.clean and len(warm.items) == 3
        assert net.network.stats.messages == before, (
            "a warm feed must not touch the network")
        assert all(item.result.source == "cache" for item in warm.items)

    def test_warm_feed_matches_cold_feed_content(self):
        net = cached_net()
        for i in range(3):
            net.post("bob", f"post-{i}")
        cold = net.feed("alice")
        warm = net.feed("alice")
        assert ([(i.author, i.post.sequence, i.post.text)
                 for i in cold.items]
                == [(i.author, i.post.sequence, i.post.text)
                    for i in warm.items])

    def test_read_hits_cache_after_first_fetch(self):
        net = cached_net()
        cid = net.post("bob", "hello")
        first = net.read("alice", "bob", cid)
        assert first.source in ("quorum", "bare")
        second = net.read("alice", "bob", cid)
        assert second.source == "cache"
        assert second.post.text == "hello"
        assert net.cache.hits >= 1


class TestPrefetch:
    def test_befriend_warms_the_new_friend(self):
        net = cached_net()
        cid = net.post("bob", "old post")
        net.befriend("bob", "dave")  # dave's cache warmed with bob's head
        assert net.cache.contains("dave", cid)
        assert net.read("dave", "bob", cid).source == "cache"

    def test_prefetch_returns_warm_count_and_feed_uses_it(self):
        net = cached_net()
        net.post("bob", "b1")
        net.post("carol", "c1")
        alice = net.users["alice"]
        listing = sync_friends(alice, net.users, alice.friends, [])
        warmed = net.prefetcher.warm("alice", listing)
        assert warmed == 2
        before = net.network.stats.messages
        feed = net.feed("alice")
        assert feed.clean
        assert net.network.stats.messages == before
        assert all(item.result.source == "cache" for item in feed.items)


class TestConfigSurface:
    def test_capacity_zero_batches_without_caching(self):
        net = cached_net(cache=CacheConfig(capacity_per_reader=0))
        assert net.cache is None and net.prefetcher is None
        net.post("bob", "b1")
        net.post("carol", "c1")
        feed = net.feed("alice")
        assert feed.clean and len(feed.items) == 2
        # no cache: every item still comes off the network, typed
        assert all(item.result.source in ("quorum", "bare")
                   for item in feed.items)

    def test_no_cache_config_means_no_cache_attributes(self):
        net = DosnNetwork(config=DosnConfig(architecture="dht", seed=5))
        assert net.cache is None and net.prefetcher is None

    def test_cache_metrics_exported_through_fabric(self):
        net = cached_net()
        cid = net.post("bob", "hello")
        net.read("alice", "bob", cid)
        net.read("alice", "bob", cid)
        assert net.metrics.get_counter_value("cache.hits") >= 1
