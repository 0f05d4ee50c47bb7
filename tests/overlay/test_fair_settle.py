"""The fair-weather RPC settle: where it applies, what it rejects, and the
one entry point every RPC still passes.

An untraced loss-free ``SimNetwork`` settles with ``_rpc_fair`` until a
policy attaches; ``test_chord_oracle.py`` holds it equal to the general
``_rpc_inner``.  Here: an attachment made after the fabric was built
moves the network onto the general path; a latency sample no RPC can
take raises on every kind of network before any span records the RPC;
and every RPC the overlays issue is one ``SimNetwork.rpc_issue`` call,
which the perf harness wraps to count them.
"""

import math

import networkx as nx
import pytest

from repro.exceptions import LookupError_, SimulationError, StorageError
from repro.fabric import Fabric
from repro.faults import (FaultPlan, OverloadConfig, Partition,
                          ServiceConfig, SlowLink)
from repro.membership import SwimMembership
from repro.overlay.chord import ChordRing
from repro.overlay.federation import FederatedNetwork
from repro.overlay.hybrid import HybridOverlay
from repro.overlay.kademlia import KademliaOverlay
from repro.overlay.locationtree import LocationTree
from repro.overlay.network import SimNetwork, SimNode
from repro.overlay.simulator import FixedLatency
from repro.overlay.superpeer import SuperPeerOverlay
from repro.systems.cuckoo import CuckooNetwork
from repro.systems.prpl import PrplNetwork
from repro.systems.supernova import SupernovaNetwork

#: a service model and nothing else: no deadline, no budgets
SERVICE = OverloadConfig(service=ServiceConfig(service_time=0.1,
                                               queue_limit=1),
                         op_budget=None, retry_budget=False,
                         adaptive_timeout=False)


def _fabric(**kwargs):
    fab = Fabric.create(seed=5, latency=FixedLatency(), **kwargs)
    for name in ("a", "b"):
        fab.network.register(SimNode(name))
    return fab


def _settles_with(fab):
    return fab.network._settle.__func__


class TestTheSettleFollowsTheAttachments:
    def test_a_bare_fabric_settles_fair_weather(self):
        fab = _fabric()
        assert _settles_with(fab) is SimNetwork._rpc_fair
        assert fab.op("a").call("a", "b", "probe") == (True, 0.1, None)
        assert fab.op("a").call("a", "ghost", "probe") \
            == (False, 0.2, "offline")

    def test_a_late_fault_plan_partitions_the_link(self):
        fab = _fabric()
        fab.network.install_faults(
            FaultPlan(seed=1).add(Partition(groups=[{"b"}])))
        assert _settles_with(fab) is SimNetwork._rpc_inner
        reply = fab.op("a").call("a", "b", "probe")
        assert reply == (False, 0.2, "partition")
        assert fab.network.stats.fault_drops == 1

    def test_a_late_service_model_sheds_a_full_queue(self):
        fab = _fabric()
        fab.install_overload(SERVICE)
        assert _settles_with(fab) is SimNetwork._rpc_inner
        # the first request occupies b's one queue slot, the second sheds
        assert fab.op("a").call("a", "b", "probe").ok
        assert fab.op("a").call("a", "b", "probe") \
            == (False, 0.1, "overloaded")
        assert fab.network.stats.shed == 1

    def test_a_lossy_network_settles_generally(self):
        fab = _fabric(loss_rate=0.5)
        assert _settles_with(fab) is SimNetwork._rpc_inner
        causes = {fab.op("a").call("a", "b", "probe").cause
                  for _ in range(40)}
        assert causes == {None, "loss"}

    def test_a_traced_network_keeps_its_span(self):
        fab = _fabric(tracing=True)
        fab.network.install_faults(FaultPlan(seed=1))
        fab.install_overload(SERVICE)
        assert _settles_with(fab) is SimNetwork._rpc_traced
        fab.call("a", "b", "probe")
        assert [s.name for s in fab.tracer.spans] == ["net.rpc"]


NETWORKS = {
    "fair": dict,
    "faulted": lambda: {"faults": FaultPlan(seed=1).add(
        SlowLink(factor=3.0, peers=frozenset({"b"})))},
    "overloaded": lambda: {"overload": OverloadConfig(
        service=ServiceConfig(), op_budget=None)},
    "traced": lambda: {"tracing": True},
}


class ThenBad:
    """A latency model whose first sample is fine and the rest ``bad``."""

    def __init__(self, bad):
        self.samples = iter([0.05])
        self.bad = bad

    def sample(self, rng, src, dst):
        return next(self.samples, self.bad)


#: which draw goes wrong: the request's (to a peer, or to no peer), or
#: the response's after a good request
DRAWS = {"request": ("b", FixedLatency),
         "unknown peer": ("ghost", FixedLatency),
         "response": ("b", ThenBad)}


@pytest.mark.parametrize("network", sorted(NETWORKS))
@pytest.mark.parametrize("latency", [math.nan, math.inf, -1.0])
@pytest.mark.parametrize("draw", sorted(DRAWS))
@pytest.mark.parametrize("via", ["Fabric.call", "OpContext.call"])
def test_an_impossible_latency_raises_before_any_span_records_it(
        network, latency, draw, via):
    dst, model = DRAWS[draw]
    fab = Fabric.create(seed=5, latency=model(latency),
                        **NETWORKS[network]())
    for name in ("a", "b"):
        fab.network.register(SimNode(name))
    call = fab.call if via == "Fabric.call" else fab.op("a").call
    with pytest.raises(SimulationError, match="finite and >= 0"):
        with fab.tracer.span("op"):
            call("a", dst, "probe")
    for span in fab.tracer.spans:
        assert 0.0 <= span.cost < math.inf, (span.name, span.cost)
        assert span.attrs.get("ok") is not True, span.name
    assert [s.name for s in fab.tracer.spans] \
        == (["net.rpc", "op"] if network == "traced" else [])


def _chord_and_kademlia():
    """Chord lookup, get and get_many and a Kademlia lookup, one peer
    offline in each: RPCs that ride ``Fabric.call``."""
    chord_fab, kad_fab = Fabric.create(seed=3), Fabric.create(seed=4)
    ring = ChordRing(chord_fab, replication=2)
    kad = KademliaOverlay(kad_fab)
    for i in range(32):
        ring.add_node(f"c{i}")
        kad.add_node(f"k{i}")
    ring.build()
    kad.bootstrap()
    ring.put("c0", "key", b"value")
    ring.nodes["c7"].go_offline()
    kad.nodes["k7"].go_offline()
    ring.lookup("c1", "key")
    ring.get("c2", "key")
    ring.get_many("c3", ["key", "other", "c7"])
    for i in range(8):
        ring.lookup(f"c{i + 8}", f"c{7 * i % 32}")
        kad.lookup(f"k{i + 8}", f"k{7 * i % 32}")
    return [chord_fab.network, kad_fab.network]


# -- the overlays and system models that call the network directly -----------


def _federation():
    """Posts, fetches and batched fetches, one reader's pod offline."""
    fab = Fabric.create(seed=3)
    fed = FederatedNetwork(fab.network, ["pod0", "pod1", "pod2"])
    users = [f"u{i}" for i in range(8)]
    for user in users:
        fed.register_user(user)
    fed.post("u0", "c", b"x", users[1:])
    fed.servers[fed.home["u1"]].go_offline()
    for user in users:
        try:
            fed.fetch(user, "c")
        except LookupError_:
            pass
        fed.fetch_many(user, ["c", "d"])
    return [fab.network]


def _super_peer():
    """Publishes, lookups and fetches, one super-peer and one holder
    offline."""
    fab = Fabric.create(seed=3)
    overlay = SuperPeerOverlay(fab.network)
    for i in range(3):
        overlay.add_super_peer(f"sp{i}")
    for i in range(12):
        overlay.add_peer(f"p{i}")
        overlay.publish(f"p{i}", f"k{i}", b"v")
    overlay.super_peers["sp1"].go_offline()
    overlay.peers["p5"].go_offline()
    for i in range(12):
        try:
            overlay.fetch(f"p{(i + 1) % 12}", f"k{i}")
        except LookupError_:
            pass
    return [fab.network]


def _location_tree():
    """Region queries with one subtree's host offline."""
    fab = Fabric.create(seed=3)
    tree = LocationTree("g", fab.network)
    regions = [("eu", "tr", "ist"), ("eu", "tr", "ank"),
               ("eu", "de", "ber"), ("us", "ny", "nyc")]
    for i in range(8):
        tree.add_member(f"m{i}", regions[i % 4])
    tree.servers["m2"].go_offline()
    for region in [(), ("eu",), ("eu", "tr"), ("us", "ny", "nyc")]:
        tree.query("m1", region)
    return [fab.network]


def _hybrid():
    """Fetches that probe neighbours' caches, one neighbour offline."""
    fab = Fabric.create(seed=3)
    graph = nx.relabel_nodes(nx.barabasi_albert_graph(30, 3, seed=3),
                             lambda i: f"h{i}")
    overlay = HybridOverlay(fab, graph)
    overlay.publish("h0", "k", b"v")
    fab.network.nodes["h1"].go_offline()
    for i in range(2, 30):
        overlay.fetch(f"h{i}", "k")
    return [fab.network]


def _swim():
    """SWIM ticks, direct and indirect probes, one member offline."""
    fab = Fabric.create(seed=3, latency=FixedLatency(0.02))
    membership = SwimMembership(fab)
    for i in range(8):
        fab.network.register(SimNode(f"s{i}"))
        membership.register(f"s{i}")
    membership.start()
    fab.network.nodes["s3"].go_offline()
    fab.sim.run(until=5.0)
    return [fab.network]


def _supernova():
    """A storekeeper store and retrieve, one keeper offline."""
    net = SupernovaNetwork(seed=3)
    for i in range(12):
        net.register(f"n{i}")
    net.report_uptimes({f"n{i}": 0.2 if i < 8 else 0.9 for i in range(12)})
    keepers = net.arrange_storekeepers("n0")
    net.overlay.peers[keepers[0]].go_offline()
    net.store("n0", "album", b"x")
    net.share_key("n0", "n1")
    net.retrieve("n1", "n0", "album")
    return [net.network]


def _cuckoo():
    """A push through the followers, one offline, then pulls."""
    net = CuckooNetwork(seed=3)
    for i in range(16):
        net.register(f"c{i}")
    for i in range(1, 8):
        net.follow(f"c{i}", "c0")
    net.go_offline("c3")
    post = net.post("c0", b"x")
    for i in range(1, 16):
        if i != 3:
            net.read(f"c{i}", post)
    return [net.network]


def _prpl():
    """Device stores and butler fetches, one device offline."""
    net = PrplNetwork(seed=3)
    for i in range(6):
        net.register(f"u{i}")
        net.store(f"u{i}", "item", b"x")
    net.device_offline(net.butler_index["u2"]["item"])
    for i in range(6):
        try:
            net.fetch(f"u{(i + 1) % 6}", f"u{i}", "item")
        except StorageError:
            pass
    return [net.network]


#: scenario -> what it runs; each returns the networks it used
RPC_SCENARIOS = {"chord and kademlia": _chord_and_kademlia,
                 "federation": _federation, "super-peer": _super_peer,
                 "location tree": _location_tree, "hybrid": _hybrid,
                 "swim": _swim, "supernova": _supernova, "cuckoo": _cuckoo,
                 "prpl": _prpl}


def test_every_fabric_rpc_is_one_rpc_issue_call(monkeypatch):
    """Each scenario, answered and failed RPCs alike: the class-level
    wrap sees each RPC its networks counted (two messages an answered
    RPC, one a failed request), whether the overlay called
    ``Fabric.call`` or the network itself."""
    calls = []
    issue = SimNetwork.rpc_issue

    def counted(self, *args, **kwargs):
        calls.append(args)
        return issue(self, *args, **kwargs)

    monkeypatch.setattr(SimNetwork, "rpc_issue", counted)
    for name, scenario in RPC_SCENARIOS.items():
        calls.clear()
        rpcs = failures = 0
        for network in scenario():
            failed = sum(
                c.value for c in network.metrics.family("net.rpc_failures"))
            rpcs += (network.stats.messages + failed) // 2
            failures += failed
        assert failures > 0, name
        assert len(calls) == rpcs > failures, name
