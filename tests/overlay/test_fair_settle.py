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

import pytest

from repro.exceptions import SimulationError
from repro.fabric import Fabric
from repro.faults import (FaultPlan, OverloadConfig, Partition,
                          ServiceConfig, SlowLink)
from repro.overlay.chord import ChordRing
from repro.overlay.kademlia import KademliaOverlay
from repro.overlay.network import SimNetwork, SimNode
from repro.overlay.simulator import FixedLatency

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


def test_every_fabric_rpc_is_one_rpc_issue_call(monkeypatch):
    """Chord lookup, get and get_many and a Kademlia lookup, with one
    peer offline: the class-level wrap sees each RPC the network
    counted (two messages an answered RPC, one a failed request)."""
    calls = []
    issue = SimNetwork.rpc_issue

    def counted(self, *args, **kwargs):
        calls.append(args)
        return issue(self, *args, **kwargs)

    monkeypatch.setattr(SimNetwork, "rpc_issue", counted)
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
    for fab in (chord_fab, kad_fab):
        fab.network.stats.reset()
    calls.clear()

    ring.lookup("c1", "key")
    ring.get("c2", "key")
    ring.get_many("c3", ["key", "other", "c7"])
    for i in range(8):
        ring.lookup(f"c{i + 8}", f"c{7 * i % 32}")
        kad.lookup(f"k{i + 8}", f"k{7 * i % 32}")

    counted_rpcs = 0
    failures = 0
    for fab in (chord_fab, kad_fab):
        failed = sum(c.value for c in fab.metrics.family("net.rpc_failures"))
        counted_rpcs += (fab.network.stats.messages + failed) // 2
        failures += failed
    assert failures > 0
    assert len(calls) == counted_rpcs > failures
