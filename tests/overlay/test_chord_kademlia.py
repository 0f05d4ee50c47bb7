"""Tests for the Chord and Kademlia structured overlays."""

import statistics

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import (DeadlineExceededError, LookupError_,
                              OverlayError, OverloadedError, ReproError,
                              StorageError)
from repro.fabric import Fabric
from repro.faults import OverloadConfig, RetryPolicy, ServiceConfig
from repro.overlay import chord as chord_module
from repro.overlay.chord import (M_BITS, ChordRing, chord_id, in_interval)
from repro.overlay.kademlia import (K, KademliaNode, KademliaOverlay,
                                    XorDistances, kad_id, xor_distance)
from repro.overlay.network import SimNetwork
from repro.overlay.simulator import FixedLatency, Simulator


def build_ring(n=64, replication=2, seed=0):
    fab = Fabric.create(seed=seed)
    net = fab.network
    ring = ChordRing(fab, replication=replication)
    for i in range(n):
        ring.add_node(f"peer{i}")
    ring.build()
    return net, ring


class TestIntervals:
    def test_simple_interval(self):
        assert in_interval(5, 3, 8)
        assert not in_interval(3, 3, 8)
        assert not in_interval(8, 3, 8)
        assert in_interval(8, 3, 8, inclusive_right=True)

    def test_wrapping_interval(self):
        assert in_interval(1, 250, 5)
        assert in_interval(255, 250, 5)
        assert not in_interval(100, 250, 5)

    def test_full_ring(self):
        assert in_interval(5, 7, 7)
        assert not in_interval(7, 7, 7)


class TestChordCorrectness:
    def test_lookup_finds_responsible_node(self):
        net, ring = build_ring(64)
        for i in range(40):
            key = f"key{i}"
            result = ring.lookup(f"peer{i % 64}", key)
            assert result.owner == ring.owner_of(key)

    def test_hops_logarithmic(self):
        samples = {}
        for n in (16, 256):
            net, ring = build_ring(n)
            hops = [ring.lookup("peer0", f"k{i}").hops for i in range(60)]
            samples[n] = statistics.mean(hops)
        assert samples[16] < samples[256] <= 2 + 0.75 * 8  # ~ O(log n)

    def test_put_get_roundtrip(self):
        net, ring = build_ring(32)
        ring.put("peer1", "photo", b"bytes")
        value, result = ring.get("peer30", "photo")
        assert value == b"bytes"

    def test_replication_survives_owner_failure(self):
        net, ring = build_ring(32, replication=3)
        ring.put("peer0", "doc", b"v")
        owner = ring.owner_of("doc")
        ring.nodes[owner].online = False
        value, _ = ring.get("peer1", "doc")
        assert value == b"v"

    def test_unreplicated_key_lost_with_owner(self):
        net, ring = build_ring(32, replication=1)
        ring.put("peer0", "doc", b"v")
        owner = ring.owner_of("doc")
        ring.nodes[owner].online = False
        with pytest.raises(StorageError):
            ring.get("peer1", "doc")

    def test_missing_key(self):
        net, ring = build_ring(16)
        with pytest.raises(StorageError):
            ring.get("peer0", "never-stored")

    def test_offline_start_rejected(self):
        net, ring = build_ring(8)
        ring.nodes["peer0"].online = False
        with pytest.raises(LookupError_):
            ring.lookup("peer0", "k")

    def test_lookup_routes_around_failures(self):
        net, ring = build_ring(64, replication=4)
        # Kill 20% of peers (not the start node).
        for i in range(1, 64, 5):
            ring.nodes[f"peer{i}"].online = False
        successes = 0
        for i in range(30):
            try:
                ring.lookup("peer0", f"key{i}")
                successes += 1
            except LookupError_:
                pass
        assert successes >= 25  # successor lists absorb most failures

    def test_replica_set_size(self):
        net, ring = build_ring(32, replication=3)
        assert len(ring.replica_set("k")) == 3

    def test_join_and_stabilize_converges(self):
        net, ring = build_ring(16)
        ring.join("latecomer", via="peer0")
        ring.stabilize_all(rounds=3)
        result = ring.lookup("latecomer", "anything")
        assert result.owner == ring.owner_of("anything")
        # the new node is actually routable as an owner too
        for i in range(50):
            key = f"probe{i}"
            if ring.owner_of(key) == "latecomer":
                assert ring.lookup("peer3", key).owner == "latecomer"
                break

    def test_id_collision_rejected(self):
        net, ring = build_ring(4)
        with pytest.raises(OverlayError):
            ring.add_node("peer0")  # same name -> same id

    def test_chord_id_stable(self):
        assert chord_id("alice") == chord_id("alice")
        assert chord_id("alice") != chord_id("bob")


class TestOneReplicaReadPath:
    """``get(k)`` and ``get_many([k])`` are one routine: on twin same-seed
    resilient fabrics they cost the same and fail the same way."""

    KEY = "photo"

    def _twin(self, overload=None):
        fab = Fabric.create(seed=9, latency=FixedLatency(0.02),
                            retry=RetryPolicy(max_attempts=2),
                            overload=overload)
        ring = ChordRing(fab, successor_list_size=4, replication=3)
        for i in range(16):
            ring.add_node(f"p{i}")
        ring.build()
        owner, second, third = ring.replica_set(self.KEY)
        # the routed node holds nothing: the read has to probe replicas
        ring.nodes[second].store[self.KEY] = b"v"
        ring.nodes[third].store[self.KEY] = b"v"
        reader = next(n for n in ring.nodes
                      if n not in (owner, second, third))
        return fab, ring, reader, (owner, second, third)

    def _outcomes(self, arrange, overload=None):
        """(outcome, stats) of the same read issued as get / get_many."""
        seen = []
        for batched in (False, True):
            fab, ring, reader, holders = self._twin(overload)
            arrange(fab, ring, holders)
            fab.network.stats.reset()
            if batched:
                outcome = ring.get_many(reader, [self.KEY])[self.KEY]
            else:
                try:
                    outcome, _ = ring.get(reader, self.KEY)
                except ReproError as exc:   # compared by type below
                    outcome = exc
            seen.append((outcome, fab.network.stats.summary()))
        return seen

    def _assert_same(self, seen):
        (single, single_stats), (batch, batch_stats) = seen
        assert type(single) is type(batch)
        assert single_stats == batch_stats
        return single, single_stats

    def test_offline_stocked_holder_is_found_out_by_probing(self):
        def arrange(fab, ring, holders):
            ring.nodes[holders[1]].go_offline()

        outcome, stats = self._assert_same(self._outcomes(arrange))
        assert outcome == b"v"
        # no oracle peek: the dead holder cost its timeouts, and the
        # probe that then succeeded counts as a hedge
        assert stats["timeouts"] == 2 and stats["hedges"] == 1

    def test_shed_probes_surface_as_overloaded(self):
        overload = OverloadConfig(
            service=ServiceConfig(service_time=0.1, queue_limit=2),
            op_budget=None, retry_budget=False, adaptive_timeout=False)

        def arrange(fab, ring, holders):
            for holder in holders[1:]:
                for _ in range(2):      # fill the holder's queue
                    assert fab.call(holders[0], holder, "warm")[0]

        outcome, stats = self._assert_same(
            self._outcomes(arrange, overload))
        assert isinstance(outcome, OverloadedError)
        assert stats["shed"] == 4 and stats["hedges"] == 1

    def test_spent_budget_stops_the_probing(self):
        overload = OverloadConfig(service=None, op_budget=0.2,
                                  retry_budget=False, adaptive_timeout=False)

        def arrange(fab, ring, holders):
            ring.nodes[holders[1]].go_offline()

        outcome, stats = self._assert_same(
            self._outcomes(arrange, overload))
        assert isinstance(outcome, DeadlineExceededError)
        assert stats["deadline_expired"] >= 1 and stats["hedges"] == 0


def ring_by_sorting(ring, key):
    """The definition the ring index replaces: sort every node by id, the
    owner is the first id >= the key's (wrapping); names from there on."""
    ordered = sorted(ring.nodes.values(), key=lambda n: n.chord_id)
    key_id = chord_id(key)
    start = next((i for i, n in enumerate(ordered) if n.chord_id >= key_id),
                 0)
    return [n.node_id for n in ordered[start:] + ordered[:start]]


def fingers_by_scanning(node, candidates):
    """Finger ``bit`` is the candidate nearest clockwise of id + 2^bit."""
    space = 1 << M_BITS
    return [min(candidates,
                key=lambda n: (n.chord_id - node.chord_id - (1 << bit))
                % space).node_id
            for bit in range(M_BITS)]


RING_OPS = st.lists(
    st.one_of(st.tuples(st.just("add"), st.integers(0, 40)),
              st.tuples(st.just("join"), st.integers(0, 40)),
              st.tuples(st.just("build"), st.just(0))),
    min_size=1, max_size=30)
PROBE_KEYS = [f"key{i}" for i in range(25)] + ["n0", "n7"]


class TestRingIndex:
    """``owner_of`` / ``replica_set`` / ``ring_order`` read one sorted index
    kept by ``add_node``; they must equal the sort-everything definition
    whatever order the ring was grown in."""

    @given(RING_OPS)
    @settings(max_examples=60, deadline=None)
    def test_equals_sorting_after_any_interleaving(self, ops):
        ring = ChordRing(Fabric.create(seed=1), replication=3)
        built = False
        for op, i in ops:
            name = f"n{i}"
            if op == "build":
                ring.build()
                built = True
                continue
            if name in ring.nodes:
                with pytest.raises(OverlayError):
                    ring.add_node(name)
            elif op == "add" or not ring.nodes:
                ring.add_node(name)
                built = False
            else:
                try:
                    ring.join(name, via=next(iter(ring.nodes)))
                except LookupError_:
                    pass  # unbuilt ring: no route, but the peer is enrolled
                assert name in ring.nodes
                built = False
            assert len(ring._ids) == len(ring._names) == len(ring.nodes)
            for key in PROBE_KEYS:
                expected = ring_by_sorting(ring, key)
                assert ring.ring_order(key) == expected
                assert ring.owner_of(key) == expected[0]
                if built:
                    assert ring.replica_set(key) == expected[:3]
                elif ring.nodes[expected[0]].successors:
                    assert ring.replica_set(key)[0] == expected[0]

    def test_build_matches_the_sorted_definition(self):
        net, ring = build_ring(37, replication=2)
        ordered = ring_by_sorting(ring, "anything")
        for slot, name in enumerate(ordered):
            node = ring.nodes[name]
            assert node.successors == [
                ordered[(slot + k + 1) % 37] for k in range(4)]
            assert node.predecessor == ordered[slot - 1]
            assert node.fingers == fingers_by_scanning(
                node, ring.nodes.values())

    def test_fix_fingers_skips_offline_peers(self):
        net, ring = build_ring(24)
        for name in ("peer3", "peer11", "peer17"):
            ring.nodes[name].online = False
        online = [n for n in ring.nodes.values() if n.online]
        node = ring.nodes["peer0"]
        ring._fix_fingers(node)
        assert node.fingers == fingers_by_scanning(node, online)

    def test_distinct_names_with_one_id_collide(self, monkeypatch):
        monkeypatch.setattr(chord_module, "chord_id", len)
        ring = ChordRing(Fabric.create(seed=1))
        ring.add_node("aa")
        ring.add_node("b")
        with pytest.raises(OverlayError):
            ring.add_node("cc")
        assert list(ring.nodes) == ["aa", "b"]
        assert (ring._ids, ring._names) == ([1, 2], ["b", "aa"])
        assert "cc" not in ring.network.nodes

    def test_single_node_ring(self):
        ring = ChordRing(Fabric.create(seed=1), replication=2)
        ring.add_node("solo")
        ring.build()
        assert ring.owner_of("k") == "solo"
        assert ring.replica_set("k") == ["solo"]
        assert ring.ring_order("k") == ["solo"]

    @pytest.mark.parametrize("resilient", [False, True])
    def test_an_empty_ring_names_itself(self, resilient):
        """No node, no owner: every placement read raises an
        ``OverlayError`` saying so (it divided by zero before)."""
        ring = ChordRing(Fabric.create(seed=1, resilient=resilient))
        for read in (ring.owner_of, ring.ring_order, ring.replica_set):
            with pytest.raises(OverlayError, match="empty"):
                read("k")
        with pytest.raises(OverlayError, match="empty"):
            ring.get_many("nobody", ["k"])
        with pytest.raises(OverlayError):
            ring.put("nobody", "k", b"v")
        with pytest.raises(OverlayError):
            ring.get("nobody", "k")


class TestHopCost:
    """What one Chord hop costs, ratcheted by counts and bytes: each node
    scans its distinct finger nodes, and an untraced RPC opens no span."""

    @staticmethod
    def assert_indexed(ring):
        for node in ring.nodes.values():
            expected = []
            for name in reversed(node.fingers):
                if name is not None and name not in expected:
                    expected.append(name)
            assert node.finger_nodes == tuple(ring.nodes[name]
                                              for name in expected)

    def test_the_finger_nodes_follow_every_finger_write(self):
        net, ring = build_ring(48)
        self.assert_indexed(ring)
        assert max(len(n.finger_nodes) for n in ring.nodes.values()) \
            < M_BITS
        ring.join("latecomer", via="peer0")
        assert len(ring.nodes["latecomer"].finger_nodes) == 1
        self.assert_indexed(ring)
        for name in ("peer3", "peer11", "peer17"):
            ring.nodes[name].go_offline()
        ring._fix_fingers(ring.nodes["peer0"])
        self.assert_indexed(ring)
        ring.stabilize_all(rounds=2)
        self.assert_indexed(ring)

    def test_a_built_ring_costs_under_950_bytes_per_node(self):
        """``Fabric.create`` plus overlay_kv's 2 000-node ring (799 B per
        node before the finger-node tuples, 940 B with them; ``(name,
        offset)`` pairs plus successor offsets cost ≈ 2 700 B)."""
        import tracemalloc
        n = 2000
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            ring = ChordRing(Fabric.create(seed=11), successor_list_size=8,
                             replication=3)
            for i in range(n):
                ring.add_node(f"c11-{i}")
            ring.build()
            grown = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(ring.nodes) == n
        assert grown / n <= 950

    @staticmethod
    def issue(tracing, monkeypatch):
        """One RPC on a fresh two-peer fabric: its no-op span calls and
        the spans it left."""
        from repro.obs.trace import NoopTracer
        from repro.overlay.network import SimNode
        fabric = Fabric.create(seed=1, tracing=tracing)
        for name in ("a", "b"):
            fabric.network.register(SimNode(name))
        calls = []
        noop_span = NoopTracer.span
        monkeypatch.setattr(NoopTracer, "span", lambda self, *args, **kw: (
            calls.append(args), noop_span(self, *args, **kw))[1])
        reply = fabric.network.rpc_issue("a", "b", "probe")
        assert reply.ok
        return calls, fabric.network.tracer.spans

    def test_an_untraced_rpc_opens_no_span(self, monkeypatch):
        assert self.issue(False, monkeypatch) == ([], [])

    def test_a_traced_rpc_opens_one_net_rpc_span(self, monkeypatch):
        calls, spans = self.issue(True, monkeypatch)
        assert calls == []
        assert [(s.name, s.attrs["kind"], s.attrs["ok"]) for s in spans] \
            == [("net.rpc", "probe", True)]
        assert spans[0].cost > 0


def _bucket_of(node, name):
    """The bucket ``name`` belongs in at ``node``: the length of the id
    prefix the two share."""
    return xor_distance(node.kad_id, kad_id(name)).bit_length() - 1


class TestKademlia:
    def build(self, n=64, seed=1):
        fab = Fabric.create(seed=seed)
        net = fab.network
        overlay = KademliaOverlay(fab)
        for i in range(n):
            overlay.add_node(f"p{i}")
        overlay.bootstrap()
        return net, overlay

    def test_xor_metric_axioms(self):
        a, b, c = kad_id("a"), kad_id("b"), kad_id("c")
        assert xor_distance(a, a) == 0
        assert xor_distance(a, b) == xor_distance(b, a)
        assert xor_distance(a, c) <= xor_distance(a, b) ^ \
            xor_distance(b, c) or True  # XOR satisfies triangle as identity
        assert xor_distance(a, c) == xor_distance(a, b) ^ xor_distance(b, c)

    @settings(max_examples=200, deadline=None)
    @given(st.text(max_size=40))
    def test_memoised_kad_id_is_the_hash(self, name):
        assert kad_id(name) == kad_id.__wrapped__(name) == kad_id(name)

    def test_kad_id_cache_is_bounded(self):
        """Content keys pass through ``kad_id`` too: unbounded, the memo
        would grow with every key a run ever hashed."""
        maxsize = kad_id.cache_info().maxsize
        assert maxsize is not None
        for i in range(maxsize + 100):
            kad_id(f"bounded-{i}")
        assert kad_id.cache_info().currsize == maxsize

    def test_buckets_bounded_by_k(self):
        net, overlay = self.build(128)
        for node in overlay.nodes.values():
            for bucket in node.buckets.values():
                assert len(bucket) <= K

    def test_lookup_converges_to_closest(self):
        net, overlay = self.build(64)
        result = overlay.lookup("p0", "target-key")
        target = kad_id("target-key")
        found_best = xor_distance(kad_id(result.closest[0]), target)
        true_best = min(xor_distance(kad_id(n), target)
                        for n in overlay.nodes)
        assert found_best == true_best

    def test_put_get(self):
        net, overlay = self.build(64)
        overlay.put("p0", "item", b"value")
        value, result = overlay.get("p9", "item")
        assert value == b"value"

    def test_value_replicated_k_times(self):
        net, overlay = self.build(64)
        overlay.put("p0", "item", b"v")
        holders = [n for n, node in overlay.nodes.items()
                   if "item" in node.store]
        assert len(holders) == K

    def test_get_missing_raises(self):
        net, overlay = self.build(16)
        with pytest.raises(StorageError):
            overlay.get("p0", "ghost")

    def test_survives_node_failures(self):
        net, overlay = self.build(64)
        overlay.put("p0", "item", b"v")
        holders = [n for n, node in overlay.nodes.items()
                   if "item" in node.store]
        for holder in holders[:4]:  # kill half the k=8 replicas
            overlay.nodes[holder].online = False
        value, _ = overlay.get("p33", "item")
        assert value == b"v"

    def test_offline_start_rejected(self):
        net, overlay = self.build(8)
        overlay.nodes["p0"].online = False
        with pytest.raises(LookupError_):
            overlay.lookup("p0", "k")

    def test_observe_moves_to_tail(self):
        net, overlay = self.build(8)
        node = overlay.nodes["p0"]
        peers = [n for bucket in node.buckets.values() for n in bucket]
        first = peers[0]
        bucket = node.buckets[_bucket_of(node, first)]
        node.observe(first)
        assert bucket[-1] == first

    def test_buckets_appear_on_first_contact(self):
        node = KademliaNode("origin")
        assert node.buckets == {}
        peers = sorted((f"p{i}" for i in range(40)),
                       key=lambda n: -_bucket_of(node, n))
        for peer in peers:  # farthest first: buckets are created descending
            node.observe(peer)
        node.observe("origin")  # self-contact never makes a bucket
        assert all(node.buckets.values())
        assert list(node.buckets) == sorted(node.buckets, reverse=True)
        known = [n for bucket in node.buckets.values() for n in bucket]
        target = kad_id("somewhere")
        assert node.closest_known(XorDistances(target), 5) == sorted(
            known, key=lambda n: xor_distance(kad_id(n), target))[:5]

    def test_rpc_cost_grows_slowly(self):
        small = self.build(16, seed=2)[1]
        large = self.build(256, seed=3)[1]
        small_rpcs = statistics.mean(
            small.lookup("p0", f"k{i}").rpcs for i in range(20))
        large_rpcs = statistics.mean(
            large.lookup("p0", f"k{i}").rpcs for i in range(20))
        assert large_rpcs < small_rpcs * 6  # sub-linear growth
