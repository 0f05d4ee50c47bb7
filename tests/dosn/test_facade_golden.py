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

Re-pinned when a post's chain entry became its only signature: every
configuration seals 12 times (one Schnorr nonce drawn from the author's
stream per seal, not two, so every later nonce and ciphertext moved); a
document lost its signature field (249 to 77 bytes before encryption, so
each ``crypto.encrypt`` / ``crypto.decrypt`` cost fell with its
``nbytes``); ``crypto.verify`` spans are opened by ``sync_timeline``, one
per accepted batch priced per entry (62 / 33 / 54 / 29 per-read spans
became 20, 34 entries in all); a cold read syncs first.  The scenario's
posts carry tags, which the cid now covers, so every tagged post's cid
moved: on the DHT its holders moved with it (cold 344 to 350 messages,
cached 200 to 184, batched 268 to 238); the central, federation and
local message counts held.
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
        "6292339e2e774f88d3adb9516d75d7ac0557422e871faa06330518d2f24b6e17",
    ("central", "cached"):
        "671490c4776ca842bcccd0b21d8f63390e08bf2d6d6f6401c85e52146166b35c",
    ("central", "batched"):
        "12ade97c50d72c8cf59fe76a6e3ec48e473953007e616660c52b0dab82d0407f",
    ("dht", "cold"):
        "fac7fdfd6baceffc6e733a0baadaff9ccd324ef3e03fc21e2f4be15b17e869ac",
    ("dht", "cached"):
        "c55f560abcc9fb6badb7338fa2b3ba76a1197205c4fed764fb0bb19f0cd4f723",
    ("dht", "batched"):
        "80e84f3f2ba0f16c437dd2d14c9ea0061e78e55fd36dc88e475aa6a15236a36c",
    ("federation", "cold"):
        "671c6928c3e18f39d401624eb0202bb84636ac32af610aab6f710dce9898bd63",
    ("federation", "cached"):
        "efd49482e038bd25bf984733d933bc97a978299adfd609b7f96c435890a04485",
    ("federation", "batched"):
        "1f2f18423b9be5394d47dd7bebc97ce7f7909f52839ac94af9dbd2c088de2c36",
    ("local", "cold"):
        "0fca711029ee25d39468fc8f54dc072e4629282c6ca1d59ca068bc80aa5e9988",
    ("local", "cached"):
        "f3d9241def6f66e64947f102ec0f0c994c550e758adcda3041bc861ea037a7f7",
    ("local", "batched"):
        "a5faffd30ae45b52bbf9b782511242f96c1b829682521abaee1d483e5a42d9f1",
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
