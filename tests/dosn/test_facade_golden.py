"""Facade golden: every architecture, cold and cached, pinned byte for byte.

The composition golden (``tests/test_composition_golden.py``) drives one
DHT network with the cache off.  This file drives :class:`DosnNetwork`
through each of the four Section II architectures, each with the cache
off, on (``CacheConfig()``) and batching-only
(``CacheConfig(capacity_per_reader=0)``, E16's configuration) — twelve
configurations, all traced.

Each configuration runs the same small scenario: ``add_user``,
``befriend`` (before and after posts, so a prefetcher has something to
warm), ``post``, ``read`` (twice, so a cache can hit), ``repost`` (so a
cached copy goes stale) and ``feed``.  One sha256 per configuration is
taken over the ordered stream of ``(op, outcome, NetworkStats.summary(),
spans)`` — a span being its name, attributes and accounted cost, in the
order the tracer closed them — followed by the final metrics registry
and ``exposure_report()``.  A refactor of the facade that moves one RNG
draw, message, span or counter in any configuration changes a digest.
"""

import hashlib

import pytest

from repro.cache import CacheConfig
from repro.dosn import ARCHITECTURES, DosnConfig, DosnNetwork
from repro.exceptions import ReproError

SEED = 5
USERS = [f"u{i}" for i in range(6)]
EARLY_EDGES = [("u0", "u1"), ("u1", "u2"), ("u2", "u3"), ("u0", "u3"),
               ("u4", "u5")]
#: befriended after the first posts: a prefetcher warms these edges
LATE_EDGES = [("u0", "u2"), ("u3", "u4")]
CACHES = {"cold": None, "cached": CacheConfig(),
          "batched": CacheConfig(capacity_per_reader=0)}

GOLDEN = {
    ("central", "cold"):
        "c3320a00f45f286c56c5f5bd068ac23b8b800765fd23e17b021c14e73380f73d",
    ("central", "cached"):
        "a0688732d23d28f6e86dba20921acc2262176d12d1241fba5dc70ef335818d32",
    ("central", "batched"):
        "0ff7b913731673d68deb3308510c74ca0f00041ea049df797ed5e6bb27e2a3db",
    ("dht", "cold"):
        "f25ec6698c9f16aea110d79f58b0d2308358538e2c6139f931271cf6e7bf1baa",
    ("dht", "cached"):
        "6b5e487e42d5c0a2f0f83975cce46bc994e8b95328f62b5642ef80cf564025bf",
    ("dht", "batched"):
        "a9dd6eca9d7e9dad50811d630ef981c5bc2fcbc04e11a119b7a5ffa1dc9aa234",
    ("federation", "cold"):
        "75c2f32168f3d63fae871b1d01a2c746e364725de585f28e8ed4a1d5ecd18326",
    ("federation", "cached"):
        "119df02eb1a3ea9af9327692c8c18857fc264b04f4305c95293c9a1507e4d760",
    ("federation", "batched"):
        "0c3564d260bb6d2c7ef565a20e251d0f4629888b91e441eb6f543ef293ef85dc",
    ("local", "cold"):
        "872ed570f5decf66e829d35a848ce9906c4b8c49561e35081a6f4d5498e73130",
    ("local", "cached"):
        "4044bfbfb7ed9aaef0b0dfb7a79960da8600af1fd00a155ac7c7443af2dd6b77",
    ("local", "batched"):
        "810955decc40a19be895953fbed20fd23f9746743f702cac6b3fde832612db7b",
}


def _feed_outcome(report) -> str:
    items = [(item.author, item.post.content_id, item.post.sequence,
              item.post.text, item.result.source, item.result.degraded,
              item.result.verified) for item in report.items]
    return repr((items, report.unavailable, report.violations))


def _run(architecture: str, cache) -> str:
    net = DosnNetwork(config=DosnConfig(architecture=architecture,
                                        seed=SEED, cache=cache,
                                        tracing=True))
    digest = hashlib.sha256()
    closed = 0

    def step(op: str, call) -> None:
        nonlocal closed
        try:
            outcome = call()
        except ReproError as exc:
            outcome = f"!{type(exc).__name__}: {exc}"
        spans = [(span.name, sorted(span.attrs.items()), span.cost)
                 for span in net.tracer.spans[closed:]]
        closed = len(net.tracer.spans)
        stats = sorted(net.network.stats.summary().items())
        digest.update(repr((op, outcome, stats, spans)).encode())

    def read(reader: str, author: str, cid: str) -> str:
        result = net.read(reader, author, cid)
        return (f"{result.source}:{result.degraded}:{result.verified}:"
                f"{result.post.text}")

    def feed(reader: str, limit=None) -> str:
        return _feed_outcome(net.feed(reader, limit_per_friend=limit))

    for name in USERS:
        step("add_user", lambda n=name: net.add_user(n).name)
    for a, b in EARLY_EDGES:
        step("befriend", lambda a=a, b=b: net.befriend(a, b))
    posts = {}
    for round_ in range(2):
        for author in USERS[:5]:
            step("post", lambda a=author, r=round_: posts.setdefault(
                (a, r), net.post(a, f"post {r} by {a}", tags=(a, f"r{r}"))))
    for a, b in LATE_EDGES:
        step("befriend", lambda a=a, b=b: net.befriend(a, b))
    for reader, author in [("u1", "u0"), ("u1", "u0"), ("u3", "u2"),
                           ("u0", "u2"), ("u4", "u3"), ("u0", "u0")]:
        cid = posts[(author, 0)]
        step("read", lambda r=reader, a=author, c=cid: read(r, a, c))
    for reader in USERS:
        step("feed", lambda r=reader: feed(r, 2))
    step("repost", lambda: net.repost("u0", posts[("u0", 0)]))
    step("read", lambda: read("u1", "u0", posts[("u0", 0)]))
    step("post", lambda: net.post("u2", "late post by u2"))
    for reader in USERS:
        step("feed", lambda r=reader: feed(r))
    step("feed", lambda: feed("u0", 0))
    metrics = [(instrument.name, instrument.labels, instrument.value)
               for instrument in net.metrics]
    digest.update(repr(("metrics", metrics)).encode())
    digest.update(repr(("exposure", net.exposure_report())).encode())
    return digest.hexdigest()


@pytest.mark.parametrize("architecture,cache", sorted(GOLDEN))
def test_facade_reproduces_the_golden_digest(architecture, cache):
    assert _run(architecture, CACHES[cache]) == \
        GOLDEN[(architecture, cache)]


def test_every_architecture_and_cache_setting_is_pinned():
    assert sorted(GOLDEN) == sorted(
        (architecture, cache) for architecture in ARCHITECTURES
        for cache in CACHES)
