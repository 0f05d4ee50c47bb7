"""Experiment E16 — hot-path caching & batched feed fan-out at scale.

E13 showed a cold DHT feed spends most of its virtual time routing one
lookup per post; E16 measures what the :mod:`repro.cache` tier buys
back.  The same social workload runs at two population scales under
three configurations:

* **baseline** — ``DosnConfig.cache`` unset: the legacy per-cid fetch
  path, byte-identical to every committed table;
* **batched** — ``CacheConfig(capacity_per_reader=0)``: no cache, but
  the feed rides one :meth:`StorageBackend.get_many` per reader (one
  route + one RPC per *holder* instead of one per post);
* **cached** — ``CacheConfig()``: batching plus the per-reader
  verified-content LRU and social prefetch.

Each reader's feed is assembled twice — cold (first contact) and warm
(steady state) — and the benchmark reports network messages per feed
plus the p50/p99 accounted virtual cost across readers.

Acceptance gates baked into the tests:

* warm cached feeds cut messages-per-feed by **>= 3x** vs the cold
  baseline at the 1k-user scale (the ISSUE's headline number);
* every byte served from cache carried chain-verified freshness
  evidence — zero unverified or degraded cache hits;
* warm cached feeds return exactly the same (author, sequence, text)
  stream as the cold baseline.

``REPRO_E16_SCALE=smoke`` shrinks the sweep for CI smoke runs.
"""

from __future__ import annotations

import os
import statistics

from _reporting import percentiles, report_table
from repro.cache import CacheConfig
from repro.dosn import DosnConfig, DosnNetwork
from repro.workloads import generate_posts, social_graph

SMOKE = os.environ.get("REPRO_E16_SCALE", "").lower() == "smoke"
SEED = 2016

#: (label, users, posts, sampled readers)
SCALES = ([("200", 200, 200, 20)] if SMOKE
          else [("1k", 1000, 1000, 50), ("5k", 5000, 2500, 50)])

CONFIGS = [
    ("baseline", None),
    ("batched", CacheConfig(capacity_per_reader=0)),
    ("cached", CacheConfig()),
]


def _build(users: int, posts: int, cache):
    graph = social_graph(users, kind="ws", seed=SEED)
    net = DosnNetwork(config=DosnConfig(
        architecture="dht", seed=SEED, cache=cache, tracing=True))
    for node in graph.nodes:
        net.add_user(str(node))
    net.apply_social_graph(graph)
    for post in generate_posts(graph, posts, seed=SEED + 1):
        net.post(post.author, post.text)
    return graph, net


def _feed_once(net, reader):
    """One feed assembly: (messages, accounted virtual cost, report)."""
    before_msgs = net.network.stats.messages
    before_spans = len(net.tracer.spans)
    report = net.feed(reader, limit_per_friend=2)
    messages = net.network.stats.messages - before_msgs
    cost = sum(span.cost for span in net.tracer.spans[before_spans:])
    return messages, cost, report


def _run_config(users, posts, readers, cache):
    _, net = _build(users, posts, cache)
    sample = sorted(net.users)[:readers]
    cold = {"msgs": [], "cost": []}
    warm = {"msgs": [], "cost": []}
    items = None
    for reader in sample:
        messages, cost, report = _feed_once(net, reader)
        assert report.clean
        cold["msgs"].append(messages)
        cold["cost"].append(cost)
    for reader in sample:
        messages, cost, report = _feed_once(net, reader)
        assert report.clean
        warm["msgs"].append(messages)
        warm["cost"].append(cost)
        if items is None:
            items = [(i.author, i.post.sequence, i.post.text)
                     for i in report.items]
        for item in report.items:
            if item.result.source == "cache":
                assert item.result.verified and not item.result.degraded, (
                    "a cache hit served unverified or degraded bytes")
    return net, cold, warm, items


def test_feed_scale(benchmark):
    """E16: messages-per-feed and virtual cost, cold vs warm, 3 configs."""

    def run():
        rows = []
        gates = {}
        for label, users, posts, readers in SCALES:
            reference = None
            for name, cache in CONFIGS:
                net, cold, warm, items = _run_config(
                    users, posts, readers, cache)
                cold_msgs = statistics.mean(cold["msgs"])
                warm_msgs = statistics.mean(warm["msgs"])
                cold_p50, cold_p99 = percentiles(cold["cost"])
                warm_p50, warm_p99 = percentiles(warm["cost"])
                hits = net.cache.hits if net.cache is not None else 0
                rows.append([label, name, f"{cold_msgs:.1f}",
                             f"{warm_msgs:.1f}", cold_p50, cold_p99,
                             warm_p50, warm_p99, hits])
                if name == "baseline":
                    reference = (cold_msgs, items)
                else:
                    # every config returns the same verified feed stream
                    assert items == reference[1], (
                        f"{name} feed diverged from baseline at {label}")
                if name == "cached":
                    gates[label] = (reference[0] / warm_msgs
                                    if warm_msgs > 0 else float("inf"))
        return rows, gates

    rows, gates = benchmark.pedantic(run, rounds=1, iterations=1)
    first_scale = SCALES[0][0]
    assert gates[first_scale] >= 3.0, (
        f"warm cached feeds at {first_scale} users only cut messages "
        f"{gates[first_scale]:.1f}x vs the cold baseline (need >= 3x)")
    measured = ("all warm feeds fully cache-served"
                if gates[first_scale] == float("inf")
                else f"measured {gates[first_scale]:.1f}x")
    report_table(
        "E16_feed_scale",
        "E16 — feed fan-out: messages and virtual cost per feed",
        ["Users", "Config", "Cold msg/feed", "Warm msg/feed",
         "Cold p50 s", "Cold p99 s", "Warm p50 s", "Warm p99 s",
         "Cache hits"],
        rows,
        note=("Cold = each reader's first feed, warm = the second.  "
              "Gate: warm cached feeds >= 3x fewer messages than the "
              f"cold baseline ({measured} at {first_scale} users); "
              "every cache hit re-validated against the author's "
              "signed chain head before serving."))


def test_cache_off_leaves_message_trace_untouched(benchmark):
    """E16b: cache=None is byte-for-byte the legacy feed path."""

    def run():
        def workload(cache):
            _, net = _build(*(SCALES[0][1:3]), cache)
            for reader in sorted(net.users)[: SCALES[0][3]]:
                net.feed(reader, limit_per_friend=2)
            return net
        legacy = workload(None)
        explicit_off = workload(None)
        return legacy, explicit_off

    legacy, explicit_off = benchmark.pedantic(run, rounds=1, iterations=1)
    assert legacy.network.stats.messages == explicit_off.network.stats.messages
    assert ([s.name for s in legacy.tracer.spans]
            == [s.name for s in explicit_off.tracer.spans])
    assert legacy.cache is None
