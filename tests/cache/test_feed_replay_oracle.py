"""A replayed feed against the same feed re-assembled.

A cached feed whose friends' chains and reader's LRU have not moved since
the reader's last steady feed is replayed
(:meth:`repro.cache.VerifiedContentCache.replay`, rule in
:mod:`repro.cache.content`).  Two networks are built from one seed; on
one of them this test's own stub refuses every replay, so each of its
feeds runs the full path.  The same random script — posts, reposts,
reads, late friendships, feeds at every limit and a forged entry
appended to an author's timeline — runs on both, with an unbounded cache
and one of two entries per reader.  After every
operation the two must agree on the outcome (the whole ``FeedReport``
for a feed), every ``cache.*`` counter, each reader's LRU order, the
message count and the RNG states.
"""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.cache import CacheConfig
from repro.dosn import DosnConfig, DosnNetwork
from repro.exceptions import ReproError

from tests.dosn.test_feed_oracle import FORGERIES, _forge
from tests.overlay.test_kad_oracle import ORACLE, _rng_states

USERS = [f"u{i}" for i in range(5)]
PAIRS = [(a, b) for i, a in enumerate(USERS) for b in USERS[i + 1:]]
LIMITS = (None, 0, 1, 2)

USER = st.integers(0, len(USERS) - 1)
FEED = st.tuples(st.just("feed"), USER, st.sampled_from(LIMITS))
OP = st.one_of(
    st.tuples(st.just("post"), USER), FEED, FEED, FEED, FEED,
    st.tuples(st.just("repost"), USER, st.integers(0, 3)),
    st.tuples(st.just("read"), USER, USER, st.integers(0, 3)),
    st.tuples(st.just("befriend"), st.sampled_from(PAIRS)),
    st.tuples(st.just("forge"), USER, st.sampled_from(FORGERIES)),
)
SCENARIO = st.fixed_dictionaries({
    "seed": st.integers(0, 2 ** 16),
    "capacity": st.sampled_from((2, 256)),
    "edges": st.lists(st.sampled_from(PAIRS), min_size=2, max_size=8,
                      unique=True),
    #: posts made before the script, so early feeds have something to serve
    "posts": st.lists(USER, max_size=10),
    "ops": st.lists(OP, min_size=4, max_size=40),
})


def _network(s, replays: bool) -> DosnNetwork:
    net = DosnNetwork(config=DosnConfig(
        architecture="dht", seed=s["seed"],
        cache=CacheConfig(capacity_per_reader=s["capacity"])))
    if not replays:
        net.cache.replay = lambda reader, key, report: False
    for name in USERS:
        net.add_user(name)
    for a, b in s["edges"]:
        net.befriend(a, b)
    return net


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
    if kind == "forge":
        return _forge(net, USERS[op[1]], op[2])
    return net.feed(USERS[op[1]], limit_per_friend=op[2])


def _state(net):
    """Everything a feed may move."""
    cache = net.cache
    return ([(i.name, i.value) for i in net.metrics
             if i.name.startswith("cache.")],
            cache.evictions,
            {reader: list(lru) for reader, lru in cache._readers.items()},
            net.network.stats.messages,
            _rng_states(net.fabric))


def _step(net, posts, op):
    try:
        outcome = _run(net, posts, op)
    except ReproError as exc:
        outcome = f"{type(exc).__name__}: {exc}"
    return outcome, _state(net)


def _agree(s) -> int:
    """Run ``s`` on both networks; how many feeds the replaying one
    replayed."""
    full, replaying = _network(s, replays=False), _network(s, replays=True)
    replayed = []
    replay = replaying.cache.replay

    def counted(reader, key, report):
        served = replay(reader, key, report)
        replayed.append(served)
        return served

    replaying.cache.replay = counted
    assert _state(replaying) == _state(full)
    full_posts, replaying_posts = {}, {}
    for op in [("post", i) for i in s["posts"]] + s["ops"]:
        assert (_step(replaying, replaying_posts, op)
                == _step(full, full_posts, op)), op
    return sum(replayed)


@ORACLE
@given(s=SCENARIO)
def test_a_replayed_feed_equals_the_feed_re_assembled(s):
    _agree(s)


@pytest.mark.parametrize("capacity, edges", [
    (256, [("u0", "u1"), ("u0", "u2")]),
    # two entries hold one friend's two newest posts, no more
    (2, [("u0", "u1")])])
def test_the_script_replays(capacity, edges):
    """The oracle is not vacuous: repeated feeds do replay."""
    ops = [("feed", 0, limit) for limit in LIMITS for _ in range(3)]
    ops += [("post", 1), ("feed", 0, 2), ("feed", 0, 2), ("feed", 0, 2),
            ("read", 0, 1, 0), ("feed", 0, 2), ("repost", 1, 0),
            ("feed", 0, 2), ("feed", 0, 2)]
    assert _agree({"seed": 3, "capacity": capacity, "edges": edges,
                   "posts": [1, 2, 1, 2], "ops": ops}) >= 6


#: scripts at the steady rule's edges (u0 reads; u1 and u2 author)
EDGES = {
    # the prefetcher wants nothing (u1's two newest came with the
    # friendship) but the oldest post is fetched: that feed is not steady,
    # the next one serves it from the cache
    "a fetched item": ([("u0", "u2")], [1, 1, 1],
                       [("befriend", ("u0", "u1")), ("feed", 0, None),
                        ("feed", 0, None), ("feed", 0, None)]),
    # a new friend whose chain fails to sync leaves the key as it was:
    # the replayed feed still reports the violation its own sync found
    "a failed sync": ([("u0", "u1")], [1],
                      [("feed", 0, None), ("feed", 0, None),
                       ("forge", 2, "signature"), ("befriend", ("u0", "u2")),
                       ("feed", 0, None), ("feed", 0, None)]),
    # with one entry fewer than the prefetcher wants, no feed is steady
    "a prefetch that cannot fit": ([("u0", "u1"), ("u0", "u2")], [1, 2],
                                   [("feed", 0, 1)] * 4),
}


@pytest.mark.parametrize("capacity", [2, 256])
@pytest.mark.parametrize("edge", sorted(EDGES))
def test_the_steady_rule_at_its_edges(edge, capacity):
    edges, posts, ops = EDGES[edge]
    _agree({"seed": 5, "capacity": capacity, "edges": edges,
            "posts": posts, "ops": ops})
