"""The one replica rule: a caller learns what a peer holds, and whether
it is up, only from the reply to the RPC it pays for.

One test per replica path.  A read probes each holder in turn and serves
only what an ``ok`` reply's holder has, so a holder that is down, or up
with nothing, still costs its probe; a write keeps a copy or an index
entry only where the store, push or index RPC came back ``ok``.
``tests/test_layering.py::test_replica_paths_read_no_liveness_flag``
keeps these functions off the ``online`` flag.
"""

import pytest

from repro.adversary import AdversaryConfig, DefenseConfig
from repro.dosn.storage import DHTBackend
from repro.exceptions import LookupError_, StorageError
from repro.fabric import Fabric
from repro.faults import FaultPlan, Partition
from repro.overlay.chord import ChordRing
from repro.overlay.federation import FederatedNetwork
from repro.overlay.kademlia import K, KademliaOverlay, kad_id
from repro.overlay.simulator import FixedLatency
from repro.overlay.superpeer import SuperPeerOverlay
from repro.storage2 import ReplicatedStore, ReplicationConfig
from repro.systems.cuckoo import CuckooNetwork
from repro.systems.prpl import PrplNetwork
from repro.systems.supernova import SupernovaNetwork


def _failures(fab_or_net, kind):
    """``kind`` RPCs that reached a peer that was down."""
    return fab_or_net.metrics.get_counter_value(
        "net.rpc_failures", kind=kind, cause="offline", direction="request")


def _ring(**fabric):
    fab = Fabric.create(seed=5, latency=FixedLatency(0.02), **fabric)
    ring = ChordRing(fab, successor_list_size=4, replication=3)
    for i in range(16):
        ring.add_node(f"p{i}")
    ring.build()
    return fab, ring


def _outsider(ring, key):
    return next(name for name in ring.nodes
                if name not in ring.replica_set(key))


def _probes(fab, kind):
    return [(s.attrs["dst"], s.attrs["ok"]) for s in fab.tracer.spans
            if s.name == "net.rpc" and s.attrs["kind"] == kind]


def _superpeers(network, peers=8):
    overlay = SuperPeerOverlay(network)
    for i in range(4):
        overlay.add_super_peer(f"sp{i}")
    for i in range(peers):
        overlay.add_peer(f"u{i}")
    return overlay


def _supernova():
    net = SupernovaNetwork(seed=8)
    for i in range(30):
        net.register(f"n{i}")
    net.report_uptimes({f"n{i}": (0.2 if i < 20 else 0.95)
                        for i in range(30)})
    return net, net.arrange_storekeepers("n0")


def _prpl():
    net = PrplNetwork(seed=2)
    for i in range(12):
        net.register(f"u{i}", device_count=2)
    return net


class TestReplyRule:
    # -- the read side --------------------------------------------------------

    def test_chord_read_probes_a_wiped_holder_and_counts_its_hedge(self):
        fab, ring = _ring(tracing=True)
        owner, second, third = ring.replica_set("k")
        reader = _outsider(ring, "k")
        ring.put(reader, "k", b"v")
        ring.nodes[owner].wipe_state()
        ring.nodes[second].wipe_state()
        fab.tracer.clear()
        value, route = ring.get(reader, "k")
        assert value == b"v" and route.owner == owner
        assert _probes(fab, "chord_replica_read") == [(second, True),
                                                      (third, True)]
        assert fab.network.stats.hedges == 1

    def test_an_empty_answer_never_becomes_the_fallback_route(self):
        """A resilient read whose route fails probes the replica set; the
        wiped first holder answers ``ok`` with nothing, so the holder
        that serves names the route."""
        _, ring = _ring()
        holders = ring.replica_set("k")
        reader = _outsider(ring, "k")
        plan = FaultPlan(seed=5, horizon=1000.0)
        plan.add(Partition(groups=[{reader, *holders}], start=10.0,
                           end=1000.0))
        fab, ring = _ring(faults=plan, resilient=True, tracing=True)
        ring.put(holders[0], "k", b"v")
        fab.sim.run(until=20.0)
        ring.nodes[holders[0]].wipe_state()
        fab.tracer.clear()
        value, route = ring.get(reader, "k")
        assert value == b"v" and (route.owner, route.hops) == (holders[1], 0)
        assert _probes(fab, "chord_replica_read") == [(holders[0], True),
                                                      (holders[1], True)]

    def test_read_any_probes_a_wiped_holder_before_the_one_that_serves(self):
        fab, ring = _ring(tracing=True)
        store = ReplicatedStore(ring, ReplicationConfig(n=3, r=2, w=2))
        store.put("p0", "k", b"v")
        first, second, _ = store.holders_of("k")
        ring.nodes[first].wipe_state()
        fab.tracer.clear()
        assert store.read_any(_outsider(ring, "k"), "k")
        assert _probes(fab, "replica_fetch") == [(first, True),
                                                 (second, True)]
        assert fab.network.stats.hedges == 1

    def test_quorum_read_pays_for_a_holder_that_missed_the_write(self):
        fab, ring = _ring(tracing=True)
        store = ReplicatedStore(ring, ReplicationConfig(n=3, r=2, w=2))
        first, second, third = store.holders_of("k")
        reader = _outsider(ring, "k")
        ring.nodes[second].go_offline()
        store.put(reader, "k", b"v")
        ring.nodes[second].go_online()
        assert "k" not in ring.nodes[second].store
        fab.tracer.clear()
        result = store.get(reader, "k")
        assert (result.payload, result.verified) == (b"v", 2)
        assert _probes(fab, "quorum_read") == [(first, True), (second, True),
                                               (third, True)]
        assert fab.network.stats.hedges == 2

    def test_quorum_read_takes_nothing_from_a_restarted_crashed_holder(self):
        fab, ring = _ring(tracing=True)
        store = ReplicatedStore(ring, ReplicationConfig(n=3, r=2, w=2))
        store.put("p0", "k", b"v")
        first, second, third = store.holders_of("k")
        ring.nodes[first].crash()
        ring.nodes[first].go_online()
        fab.tracer.clear()
        result = store.get(_outsider(ring, "k"), "k")
        assert (result.verified, result.rejected, result.repaired) \
            == (2, 0, 0)
        assert result.holder in (second, third)
        assert _probes(fab, "quorum_read") == [(first, True), (second, True),
                                               (third, True)]
        assert "k" not in ring.nodes[first].store

    def test_defended_kad_read_pays_for_an_offline_closest_holder(self):
        fab = Fabric.create(seed=5, latency=FixedLatency(0.02),
                            adversary=AdversaryConfig(
                                compromised=frozenset(),
                                defense=DefenseConfig()))
        kad = KademliaOverlay(fab)
        names = [f"q{i}" for i in range(24)]
        for name in names:
            kad.add_node(name)
        kad.bootstrap()
        closest = sorted(names, key=lambda n: kad_id(n) ^ kad_id("k"))[:K]
        start = next(n for n in names if n not in closest)
        kad.put(start, "k", b"v")
        kad.nodes[closest[0]].go_offline()
        value, result = kad.get(start, "k")
        assert value == b"v" and result.closest[:2] == closest[:2]
        assert _failures(fab, "kad_fetch") == 1

    def test_superpeer_fetch_pays_for_an_offline_holder(self):
        fab = Fabric.create(seed=3, latency=FixedLatency(0.02))
        overlay = _superpeers(fab.network)
        overlay.publish("u1", "k", b"v")
        overlay.publish("u2", "k", b"v")
        overlay.peers["u1"].go_offline()
        hops = overlay.lookup("u5", "k").hops
        value, result = overlay.fetch("u5", "k")
        assert value == b"v"
        assert result.hops == hops + 2
        assert _failures(fab, "sp_fetch") == 1

    def test_supernova_fetch_pays_for_an_offline_keeper(self):
        net, keepers = _supernova()
        net.store("n0", "album", b"data")
        net.overlay.peers[keepers[0]].go_offline()
        assert net.retrieve("n0", "n0", "album") == b"data"
        assert _failures(net.network, "sn_fetch") == 1

    def test_prpl_fetch_asks_the_butler_instead_of_peeking(self):
        net = _prpl()
        net.store("u0", "photo", b"p")
        net.butler_offline("u0")
        with pytest.raises(LookupError_):
            net.fetch("u5", "u0", "photo")
        assert _failures(net.network, "prpl_butler") == 1

    # -- the write side -------------------------------------------------------

    def test_kad_put_pays_for_an_offline_closest_node(self):
        fab = Fabric.create(seed=5, latency=FixedLatency(0.02))
        kad = KademliaOverlay(fab)
        names = [f"q{i}" for i in range(24)]
        for name in names:
            kad.add_node(name)
        kad.bootstrap()
        closest = sorted(names, key=lambda n: kad_id(n) ^ kad_id("k"))[:K]
        down = closest[1]
        kad.nodes[down].go_offline()
        start = next(n for n in names if n not in closest)
        result = kad.put(start, "k", b"v")
        assert down in result.closest
        assert "k" not in kad.nodes[down].store
        assert _failures(fab, "kad_store") == 1

    def test_federation_keeps_no_copy_at_a_pod_that_did_not_ack(self):
        fab = Fabric.create(seed=3)
        federation = FederatedNetwork(fab.network, ["pod0", "pod1"])
        federation.register_user("alice", "pod0")
        federation.register_user("bob", "pod1")
        federation.servers["pod1"].go_offline()
        delivery = federation.post("alice", "c1", b"x", ["bob"])
        assert delivery.servers_stored == ["pod0"]
        assert delivery.cross_server_messages == 1
        assert "c1" not in federation.servers["pod1"].content
        assert not federation.servers["pod1"].observed_edges

    def test_superpeer_publish_indexes_nothing_its_super_peer_missed(self):
        fab = Fabric.create(seed=3)
        overlay = _superpeers(fab.network)
        overlay.super_peers[overlay.peers["u1"].super_peer].go_offline()
        overlay.publish("u1", "k", b"v")
        assert all("k" not in sp.index
                   for sp in overlay.super_peers.values())
        assert overlay.peers["u1"].store["k"] == b"v"

    def test_supernova_indexes_only_the_keepers_that_acked(self):
        net, keepers = _supernova()
        net.overlay.peers[keepers[1]].go_offline()
        net.store("n0", "album", b"data")
        net.overlay.peers[keepers[1]].go_online()
        assert net.overlay.lookup("n3", "sn/n0/album").holders \
            == [keepers[0], keepers[2]]
        assert ("n0", "album") not in net._kept[keepers[1]]
        assert _failures(net.network, "sn_store") == 1

    def test_cuckoo_push_pays_for_an_offline_follower(self):
        net = CuckooNetwork(seed=1)
        for i in range(24):
            net.register(f"c{i}")
        for i in range(1, 7):
            net.follow(f"c{i}", "c0")
        net.go_offline("c3")
        post_id = net.post("c0", b"x")
        assert post_id not in net.inboxes["c3"]
        assert _failures(net.network, "cuckoo_push") == 1

    def test_prpl_butler_indexes_only_an_acknowledged_item(self):
        net = _prpl()
        net.butler_offline("u0")
        net.store("u0", "photo", b"p")
        assert "photo" not in net.butler_index["u0"]
        assert _failures(net.network, "prpl_index") == 1

    def test_prpl_indexes_nothing_stored_on_an_offline_device(self):
        net = _prpl()
        net.device_offline("u0/dev0")
        net.store("u0", "photo", b"p", device_id="u0/dev0")
        assert "photo" not in net.butler_index["u0"]
        assert _failures(net.network, "prpl_index") == 1
        with pytest.raises(StorageError, match="has no item"):
            net.fetch("u5", "u0", "photo")

    # -- what the bare DHT backend records ------------------------------------

    def test_bare_dht_backend_records_only_acknowledged_holders(self):
        fab, ring = _ring()
        backend = DHTBackend(ring)
        owner, down, third = ring.replica_set("cid")
        ring.nodes[down].go_offline()
        backend.put(_outsider(ring, "cid"), "cid", b"blob")
        assert {name for name, cids in backend.observer_views().items()
                if "cid" in cids} == {owner, third}
        assert not hasattr(backend, "placements")
