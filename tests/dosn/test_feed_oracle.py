"""The one-pass cached feed against the two-pass feed it replaced.

``tests/dosn/reference.py`` keeps the cached feed as first written: the
prefetcher syncs and lists every friend, then ``assemble_feed`` syncs and
lists every friend again.  Two traced networks are built from one seed;
one serves its feeds and befriend prefetches through the reference, the
other through the code under test, and the same random script runs on
both — posts, reposts, reads, late friendships, feeds at every limit, a
forged entry appended to an author's timeline, a holder going offline —
on every architecture, with an unbounded cache and one of two entries per
reader.  After every operation the two must agree on the outcome, the
network statistics, every counter (``cache.*`` included), the spans
closed (name, parent, attributes, cost), the RNG states and the posts
each prefetcher warmed.
"""

from dataclasses import replace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.cache import CacheConfig
from repro.dosn import ARCHITECTURES, DosnConfig, DosnNetwork
from repro.exceptions import ReproError
from repro.integrity.hashchain import ChainEntry

from tests.dosn import reference
from tests.overlay.test_kad_oracle import ORACLE, _rng_states

USERS = [f"u{i}" for i in range(5)]
PAIRS = [(a, b) for i, a in enumerate(USERS) for b in USERS[i + 1:]]
CACHES = {"unbounded": CacheConfig(),
          "two per reader": CacheConfig(capacity_per_reader=2)}
#: how a forged entry fails to extend a reader's verified view
FORGERIES = ("signature", "sequence", "link")

USER = st.integers(0, len(USERS) - 1)
POST = st.tuples(st.just("post"), USER)
FEED = st.tuples(st.just("feed"), USER, st.sampled_from((None, 0, 1, 2, 5)))
OP = st.one_of(
    POST, POST, POST, POST, FEED, FEED, FEED,
    st.tuples(st.just("repost"), USER, st.integers(0, 3)),
    st.tuples(st.just("read"), USER, USER, st.integers(0, 3)),
    st.tuples(st.just("befriend"), st.sampled_from(PAIRS)),
    st.tuples(st.just("forge"), USER, st.sampled_from(FORGERIES)),
    st.tuples(st.just("offline"), st.integers(0, 7)),
)
SCENARIO = st.fixed_dictionaries({
    "seed": st.integers(0, 2 ** 16),
    "cache": st.sampled_from(sorted(CACHES)),
    "edges": st.lists(st.sampled_from(PAIRS), min_size=2, max_size=8,
                      unique=True),
    "ops": st.lists(OP, min_size=4, max_size=30),
    #: posts made before the script, so early feeds have something to serve
    "posts": st.lists(USER, max_size=10),
})


def _network(architecture: str, s, old: bool) -> DosnNetwork:
    net = DosnNetwork(config=DosnConfig(
        architecture=architecture, seed=s["seed"],
        cache=CACHES[s["cache"]], tracing=True))
    if old:
        reference.install(net)
    for name in USERS:
        net.add_user(name)
    for a, b in s["edges"]:
        net.befriend(a, b)
    return net


def _forge(net, author: str, kind: str) -> None:
    """Append an entry no reader's view can accept to ``author``'s chain."""
    timeline = net.users[author].timeline
    entry = ChainEntry(author=author, sequence=len(timeline.entries),
                       previous=timeline.head_hash, payload=b"forged",
                       citations=(), signature=(1, 1))
    timeline.entries.append({
        "signature": entry,
        "sequence": replace(entry, sequence=entry.sequence + 1),
        "link": replace(entry, previous=bytes(32))}[kind])


def _toggle_holder(net, i: int) -> None:
    """Take a storage holder offline, or bring it back."""
    if net.architecture == "local":
        author = USERS[i % len(USERS)]
        net.storage.online[author] = not net.storage.online.get(author,
                                                                True)
        return
    holders = {"dht": lambda: net.ring.nodes,
               "federation": lambda: net.federation.servers,
               "central": dict}[net.architecture]()
    if holders:
        holders = sorted(holders)
        node = net.network.nodes[holders[i % len(holders)]]
        node.go_offline() if node.online else node.go_online()


def _run(net, posts, op):
    kind = op[0]
    if kind == "post":
        author = USERS[op[1]]
        mine = posts.setdefault(author, [])
        mine.append(net.post(author, f"post {len(mine)} by {author}"))
        return mine[-1]
    if kind == "repost":
        mine = posts.get(USERS[op[1]], [])
        return mine and net.repost(USERS[op[1]], mine[op[2] % len(mine)])
    if kind == "read":
        mine = posts.get(USERS[op[2]], [])
        return mine and net.read(USERS[op[1]], USERS[op[2]],
                                 mine[op[3] % len(mine)])
    if kind == "befriend":
        return net.befriend(*op[1])
    if kind == "feed":
        return net.feed(USERS[op[1]], limit_per_friend=op[2])
    if kind == "forge":
        return _forge(net, USERS[op[1]], op[2])
    return _toggle_holder(net, op[1])


def _state(net, closed: int):
    """Everything an operation may have moved."""
    return (net.network.stats.summary(),
            [(i.name, i.labels, i.value) for i in net.metrics],
            [(span.name, span.parent_id, span.attrs, span.cost)
             for span in net.tracer.spans[closed:]],
            _rng_states(net.fabric),
            net.prefetcher.prefetched)


def _step(net, posts, op):
    closed = len(net.tracer.spans)
    try:
        outcome = _run(net, posts, op)
    except ReproError as exc:
        outcome = f"{type(exc).__name__}: {exc}"
    return outcome, _state(net, closed)


@pytest.mark.parametrize("architecture", ARCHITECTURES)
@ORACLE
@given(s=SCENARIO)
def test_the_one_pass_feed_equals_the_two_pass_oracle(architecture, s):
    old = _network(architecture, s, old=True)
    new = _network(architecture, s, old=False)
    assert _state(new, 0) == _state(old, 0)
    old_posts, new_posts = {}, {}
    for op in [("post", i) for i in s["posts"]] + s["ops"]:
        assert _step(new, new_posts, op) == _step(old, old_posts, op), op
