"""End-to-end latency tests for the fan-out consumers.

Every fan-out pays its critical path — there is no other latency model.
Each consumer must (a) report an elapsed equal to its settle point (the
R-th verified completion, the winning hedge) and strictly below the
serial sum of the same run's probe RTTs, read off the trace, (b) never
let unverifiable bytes win, and (c) be a pure function of its seed.
"""

from repro.fabric import Fabric
from repro.faults import CorruptBlob, FaultPlan
from repro.faults.resilience import HEDGE_DELAY
from repro.overlay.chord import ChordRing
from repro.overlay.network import SimNode
from repro.storage2 import ReplicatedStore, ReplicationConfig

PEERS = [f"p{i}" for i in range(12)]


def make_store(seed=7):
    fabric = Fabric.create(seed=seed, tracing=True)
    ring = ChordRing(fabric, replication=3)
    for name in PEERS:
        ring.add_node(name)
    ring.build()
    store = ReplicatedStore(ring, ReplicationConfig(n=3, r=2, w=2))
    return fabric, ring, store


def children_of(fabric, name):
    """Costs of the direct children of the last ``name`` span."""
    spans = fabric.tracer.spans
    parent = [s for s in spans if s.name == name][-1]
    return parent, [s.cost for s in spans if s.parent_id == parent.span_id]


def quorum_read_cell(corrupt_first_holder=False):
    fabric, ring, store = make_store()
    store.put("p0", "k", b"payload")
    holders = store.placements["k"]
    if corrupt_first_holder:
        fabric.network.install_faults(
            FaultPlan(seed=7).add(CorruptBlob(holders={holders[0]})))
    reader = next(n for n in PEERS if n not in holders)
    fabric.network.stats.reset()
    result = store.get(reader, "k")
    return fabric, result


class TestQuorumReadLatency:
    def test_concurrent_strictly_below_serial_at_equal_messages(self):
        fabric, result = quorum_read_cell()
        fanout, probe_rtts = children_of(fabric, "storage2.get.fanout")
        assert fanout.parallel
        assert len(probe_rtts) == 3  # every holder probed, once
        assert fabric.network.stats.summary()["messages"] == 6
        assert result.payload == b"payload"
        # one run carries both bills: the read pays its critical path,
        # strictly below the same probes laid end to end
        assert result.elapsed == fanout.cost
        assert 0.0 < result.elapsed < sum(probe_rtts)

    def test_concurrent_settles_at_rth_verified(self):
        fabric, result = quorum_read_cell()
        _, probe_rtts = children_of(fabric, "storage2.get.fanout")
        # R=2 of 3, all verified: the read returns at the 2nd completion
        # and the slowest probe is never on the critical path
        assert result.verified >= 2
        assert result.elapsed == sorted(probe_rtts)[1]
        assert result.elapsed < max(probe_rtts)

    def test_byzantine_bytes_never_win(self):
        fabric, result = quorum_read_cell(corrupt_first_holder=True)
        _, probe_rtts = children_of(fabric, "storage2.get.fanout")
        # the liar's response cannot count toward R, so with one of
        # three holders lying the read waits for both honest ones
        assert result.payload == b"payload"
        assert result.rejected == 1
        assert result.elapsed >= sorted(probe_rtts)[1]
        assert result.elapsed < sum(probe_rtts)

    def test_batched_get_many_settles_per_key(self):
        fabric, ring, store = make_store()
        for i in range(4):
            store.put("p0", f"k{i}", b"v%d" % i)
        results = store.get_many("p7", [f"k{i}" for i in range(4)])
        assert all(results[f"k{i}"].payload == b"v%d" % i
                   for i in range(4))
        fanout, probe_rtts = children_of(fabric, "storage2.get.fanout")
        # each key waits for the R-th holder that verified *that key*; the
        # batch for its slowest key, never longer than its slowest holder
        assert len(probe_rtts) == len(set(
            h for k in results for h in store.holders_of(k)))
        assert fanout.cost == max(r.elapsed for r in results.values())
        assert fanout.cost <= max(probe_rtts) < sum(probe_rtts)
        assert all(0.0 < results[k].elapsed <= fanout.cost for k in results)

    def test_batch_settled_before_its_slowest_holder_costs_less(self):
        # keys owned by one node share its replica set, so every key
        # reaches R=2 of 3 before the slowest of those holders answers
        fabric, ring, store = make_store()
        owner = ring.owner_of("k0")
        keys = [k for k in (f"k{i}" for i in range(64))
                if ring.owner_of(k) == owner][:3]
        assert len(keys) == 3
        for key in keys:
            store.put("p0", key, key.encode())
        reader = next(n for n in PEERS if n not in store.holders_of(keys[0]))
        results = store.get_many(reader, keys)
        fanout, probe_rtts = children_of(fabric, "storage2.get.fanout")
        assert len(probe_rtts) == 3  # one probe per holder, not per key
        assert all(results[k].elapsed == sorted(probe_rtts)[1] for k in keys)
        assert fanout.cost == sorted(probe_rtts)[1] < max(probe_rtts)


def hedged_cell(offline=()):
    fabric = Fabric.create(seed=11, loss_rate=0.15, resilient=True,
                           tracing=True)
    for name in PEERS:
        fabric.network.register(SimNode(name))
    for name in offline:
        fabric.network.nodes[name].online = False
    return fabric


class TestHedgedFanout:
    def test_winner_and_cancellation_semantics(self):
        fabric = hedged_cell(offline=("p1",))
        ok, winner, elapsed = fabric.channel.hedged(
            "p0", ["p1", "p2", "p3"], kind="fetch")
        assert ok
        assert winner in ("p2", "p3")  # p1 is offline: it cannot win
        assert elapsed > 0.0

    def test_concurrent_cheaper_than_serial_on_failover(self):
        # p1 and p2 offline: a sequential walk would pay both timeouts in
        # full, the hedged race overlaps them with the p3 probe.
        fabric = hedged_cell(offline=("p1", "p2"))
        ok, winner, elapsed = fabric.channel.hedged(
            "p0", ["p1", "p2", "p3"], kind="fetch")
        span, attempt_rtts = children_of(fabric, "channel.hedged")
        assert ok and winner == "p3"
        assert len(attempt_rtts) == 3
        # p3 launched in slot 2 and won: its RTT after two stagger steps
        assert elapsed == span.cost == 2 * HEDGE_DELAY + attempt_rtts[2]
        assert elapsed < sum(attempt_rtts)

    def test_all_dead_fails(self):
        fabric = hedged_cell(offline=("p1", "p2", "p3"))
        ok, winner, elapsed = fabric.channel.hedged(
            "p0", ["p1", "p2", "p3"], kind="fetch")
        assert not ok
        assert winner is None
        assert elapsed > 0.0


class TestSingleModelTrace:
    """One seed, one trace: fan-out spans are always there."""

    def _trace(self):
        fabric, ring, store = make_store(seed=2015)
        for i in range(5):
            store.put(f"p{i}", f"k{i}", b"blob-%d" % i)
        reads = [store.get(f"p{(i + 6) % 12}", f"k{i}") for i in range(5)]
        batch = store.get_many("p11", [f"k{i}" for i in range(5)])
        spans = [(s.name, s.parent_id, round(s.cost, 12),
                  sorted(s.attrs.items()))
                 for s in fabric.tracer.spans]
        stats = fabric.network.stats.summary()
        payloads = ([r.payload for r in reads] +
                    [batch[k].payload for k in sorted(batch)])
        return spans, stats, payloads

    def test_same_seed_same_trace(self):
        assert self._trace() == self._trace()

    def test_fanout_spans_are_always_emitted(self):
        names = [name for name, *_ in self._trace()[0]]
        assert "storage2.put.fanout" in names
        # five one-key reads and one batch: one read, one span pair each
        assert names.count("storage2.get") == 6
        assert names.count("storage2.get.fanout") == 6
