"""Experiment E17 — fan-out latency: probes summed vs the critical path.

A real client overlaps the independent requests of a fan-out (quorum
probes, hedged replica fetches, batched feed fetches) and pays roughly
the slowest one — which is precisely the latency the paper's
availability-vs-cost trade-off (replication, quorum privacy) is priced
against.  The clock is frozen during an operation, so every branch of a
fan-out leaves at the same instant and
:func:`repro.overlay.simulator.critical_path` prices exactly that
critical path from the branches' latencies; E17 measures what it saves
over the naive bill, from **one run**:
every fan-out's probes are children of its span in the trace, so their
RTTs summed are what a client issuing the very same probes one at a time
would have paid.  Both rows of each table therefore share their wire
cost by construction:

* **quorum reads** (R=2 of N=3 verified) — the headline gate: the read
  settles at the 2nd verified response, strictly below its 3 probes laid
  end to end (expected roughly 3x);
* **hedged lookups** under loss — staggered hedges pay the winner's
  completion offset instead of every launched attempt in sequence;
* **cold/warm batched feeds** — the feed inherits the backend's
  overlapped holder probes.

Determinism: the quorum cell is re-run and must settle byte-identically
(a fan-out's cost is a function of its branches' latencies, and every
latency is a pure function of the seed).

``REPRO_E17_SCALE=smoke`` shrinks the sweep for CI smoke runs.
"""

from __future__ import annotations

import os
import statistics

from _reporting import percentiles, report_table
from repro.cache import CacheConfig
from repro.dosn import DosnConfig, DosnNetwork
from repro.fabric import Fabric
from repro.overlay.chord import ChordRing
from repro.overlay.network import SimNode
from repro.storage2 import ReplicatedStore, ReplicationConfig
from repro.workloads import generate_posts, social_graph

SMOKE = os.environ.get("REPRO_E17_SCALE", "").lower() == "smoke"
SEED = 2017

N = 24 if SMOKE else 64          # chord peers (quorum cells)
KEYS = 8 if SMOKE else 24        # stored objects
READS = 16 if SMOKE else 48      # quorum reads measured
TRIALS = 12 if SMOKE else 40     # hedged lookups measured
USERS = 120 if SMOKE else 300    # feed cells
POSTS = 120 if SMOKE else 300
READERS = 8 if SMOKE else 20


def _children_summed(spans, select):
    """``(span, sum of its children's costs)`` per selected span: the
    same run's probes laid end to end."""
    child_sum = {}
    for span in spans:
        child_sum[span.parent_id] = child_sum.get(span.parent_id, 0.0) \
            + span.cost
    return [(span, child_sum.get(span.span_id, 0.0))
            for span in spans if select(span)]


# -- quorum reads (the headline cell) ------------------------------------------


def _quorum_cell():
    """One quorum-read workload; returns (stats summary, per-read
    critical-path latency, per-read summed probe RTTs)."""
    fab = Fabric.create(seed=SEED, tracing=True)
    ring = ChordRing(fab, successor_list_size=8, replication=3)
    for i in range(N):
        ring.add_node(f"p{i}")
    ring.build()
    store = ReplicatedStore(ring, ReplicationConfig(n=3, r=2, w=2))
    for i in range(KEYS):
        store.put(f"p{(3 * i + 1) % N}", f"key{i}", b"blob-%d" % i)
    fab.network.stats.reset()
    elapsed = []
    summed = []
    for j in range(READS):
        mark = len(fab.tracer.spans)
        result = store.get(f"p{(2 * j + 1) % N}", f"key{j % KEYS}")
        (fanout, probe_sum), = _children_summed(
            fab.tracer.spans[mark:], lambda span: span.parallel)
        assert fanout.name == "storage2.get.fanout"
        assert fanout.cost == result.elapsed
        elapsed.append(result.elapsed)
        summed.append(probe_sum)
    return fab.network.stats.summary(), elapsed, summed


def test_quorum_read_critical_path(benchmark):
    """E17 headline: quorum reads pay the critical path."""
    stats_, elapsed, summed = benchmark.pedantic(
        _quorum_cell, rounds=1, iterations=1)

    # The acceptance gate: strictly below, read by read and in aggregate
    # — at equal wire cost, since both bills price the same probes.
    assert all(e < s for e, s in zip(elapsed, summed))
    summed_mean = statistics.mean(summed)
    critical_mean = statistics.mean(elapsed)
    assert critical_mean < summed_mean, (
        f"critical-path mean {critical_mean:.4f}s not below the summed "
        f"probes {summed_mean:.4f}s")
    speedup = summed_mean / critical_mean

    rows = []
    for label, latencies in (("probes summed", summed),
                             ("critical path", elapsed)):
        p50, p99 = percentiles(latencies)
        rows.append([label, f"{statistics.mean(latencies):.4f}",
                     f"{p50:.4f}", f"{p99:.4f}",
                     f"{stats_['messages'] / READS:.1f}",
                     f"{stats_['bytes'] / READS:.0f}"])
    report_table(
        "E17_latency_fanout",
        "E17 — verified quorum reads (R=2 of N=3): sum vs critical path",
        ["Bill", "Mean lat (s)", "p50 (s)", "p99 (s)", "Msgs/read",
         "Bytes/read"],
        rows,
        note=(f"One run, one set of probes: each read settles at the 2nd "
              f"verified response; its 3 probe RTTs, read off the trace "
              f"and laid end to end, cost {speedup:.1f}x more on "
              "average.  Read-repair pushes are background either way."))


def test_concurrent_settle_deterministic(benchmark):
    """E17b: two runs settle byte-identically (seeded)."""

    def run_twice():
        return _quorum_cell(), _quorum_cell()

    first, second = benchmark.pedantic(run_twice, rounds=1, iterations=1)
    assert repr(first) == repr(second)


# -- hedged lookups under loss --------------------------------------------------


def _hedged_cell():
    fab = Fabric.create(seed=SEED + 1, loss_rate=0.2, resilient=True,
                        tracing=True)
    names = [f"h{i}" for i in range(12)]
    for name in names:
        fab.network.register(SimNode(name))
    for i in (2, 5):
        fab.network.nodes[f"h{i}"].online = False
    fab.network.stats.reset()
    elapsed = []
    summed = []
    successes = 0
    for j in range(TRIALS):
        dsts = [names[(j + k) % len(names)] for k in range(3)]
        mark = len(fab.tracer.spans)
        ok, _winner, t = fab.channel.hedged(f"r{j}", dsts,
                                            kind="replica_fetch")
        (_race, attempt_sum), = _children_summed(
            fab.tracer.spans[mark:],
            lambda span: span.name == "channel.hedged")
        successes += 1 if ok else 0
        elapsed.append(t)
        summed.append(attempt_sum)
    return fab.network.stats.summary(), elapsed, summed, successes


def test_hedged_lookup_latency(benchmark):
    """E17c: a staggered hedge race vs its attempts laid end to end."""
    stats_, elapsed, summed, ok_count = benchmark.pedantic(
        _hedged_cell, rounds=1, iterations=1)

    summed_mean = statistics.mean(summed)
    hedged_mean = statistics.mean(elapsed)
    # A race with a single launch costs exactly its one attempt, so the
    # per-lookup gate is <=; in aggregate the overlap must show.
    assert all(e <= s for e, s in zip(elapsed, summed))
    assert hedged_mean < summed_mean, (
        f"hedged mean {hedged_mean:.4f}s not below the summed attempts "
        f"{summed_mean:.4f}s")
    rows = []
    for label, latencies in (("attempts summed", summed),
                             ("hedged race", elapsed)):
        p50, p99 = percentiles(latencies)
        rows.append([label, f"{statistics.mean(latencies):.4f}",
                     f"{p50:.4f}", f"{p99:.4f}",
                     f"{ok_count}/{TRIALS}",
                     stats_["hedges"],
                     f"{stats_['messages'] / TRIALS:.1f}"])
    report_table(
        "E17c_hedged",
        "E17c — hedged replica lookups under 20% loss",
        ["Bill", "Mean lat (s)", "p50 (s)", "p99 (s)", "Success",
         "Hedges", "Msgs/lookup"],
        rows,
        note=("One run: launches are staggered every hedge_delay=0.05s, "
              "stop once an earlier request has won, and the lookup pays "
              "the winner's completion offset; 'attempts summed' is the "
              "same launched attempts' RTTs (and timeouts) read off the "
              "trace and paid one after another."))


# -- batched feeds ---------------------------------------------------------------


def _feed_once(net, reader):
    before_msgs = net.network.stats.messages
    before_spans = len(net.tracer.spans)
    report = net.feed(reader, limit_per_friend=2)
    assert report.clean
    messages = net.network.stats.messages - before_msgs
    spans = net.tracer.spans[before_spans:]
    cost = sum(span.cost for span in spans if span.parent_id is None)
    # every parallel fan-out under the feed, re-priced at its children's
    # sum (fan-out spans add no cost of their own and do not nest here)
    summed = cost + sum(child_sum - fanout.cost for fanout, child_sum
                        in _children_summed(spans,
                                            lambda span: span.parallel))
    return messages, cost, summed


def _feed_cell():
    graph = social_graph(USERS, kind="ws", seed=SEED)
    net = DosnNetwork(config=DosnConfig(
        architecture="dht", seed=SEED, tracing=True,
        cache=CacheConfig(capacity_per_reader=0)))  # batched, uncached
    for node in graph.nodes:
        net.add_user(str(node))
    net.apply_social_graph(graph)
    for post in generate_posts(graph, POSTS, seed=SEED + 1):
        net.post(post.author, post.text)
    readers = sorted(net.users)[:READERS]
    cold = {"msgs": [], "cost": [], "summed": []}
    warm = {"msgs": [], "cost": [], "summed": []}
    for phase in (cold, warm):
        for reader in readers:
            messages, cost, summed = _feed_once(net, reader)
            phase["msgs"].append(messages)
            phase["cost"].append(cost)
            phase["summed"].append(summed)
    return cold, warm


def test_feed_fanout_latency(benchmark):
    """E17d: batched feeds inherit the backend's overlapped fan-out."""
    cold, warm = benchmark.pedantic(_feed_cell, rounds=1, iterations=1)

    summed_p50, _ = percentiles(warm["summed"])
    critical_p50, _ = percentiles(warm["cost"])
    assert critical_p50 < summed_p50, (
        f"warm feed p50 {critical_p50:.4f}s not below its owner groups "
        f"summed {summed_p50:.4f}s")
    rows = []
    for label, bill in (("groups summed", "summed"),
                        ("critical path", "cost")):
        cold_p50, cold_p99 = percentiles(cold[bill])
        warm_p50, warm_p99 = percentiles(warm[bill])
        rows.append([label,
                     f"{statistics.mean(cold['msgs']):.1f}",
                     f"{statistics.mean(warm['msgs']):.1f}",
                     f"{cold_p50:.4f}", f"{cold_p99:.4f}",
                     f"{warm_p50:.4f}", f"{warm_p99:.4f}"])
    report_table(
        "E17d_feed_fanout",
        "E17d — batched feed assembly: virtual cost per feed",
        ["Bill", "Cold msg/feed", "Warm msg/feed", "Cold p50 s",
         "Cold p99 s", "Warm p50 s", "Warm p99 s"],
        rows,
        note=("One run, one set of messages: the batched fetch's owner "
              "groups overlap, so a feed costs roughly its slowest group; "
              "'groups summed' re-prices each fan-out span at the sum of "
              "its children from the same trace."))
