"""Fabric/DosnConfig surface: wiring, removed shims, failure-cause metrics."""

import pytest

from repro.adversary import AdversaryConfig, DefenseConfig
from repro.dosn import DosnConfig, DosnNetwork
from repro.dosn.storage import DHTBackend
from repro.exceptions import LookupError_, OverlayError
from repro.fabric import Fabric
from repro.faults import (Crash, FaultPlan, OverloadConfig, Partition,
                          ReliableChannel, RetryPolicy)
from repro.faults.overload import NO_DEADLINE
from repro.membership import SwimMembership
from repro.membership.swim import DEAD
from repro.obs.trace import NOOP_TRACER, Tracer
from repro.overlay.chord import ChordRing
from repro.overlay.kademlia import KademliaOverlay
from repro.overlay.network import SimNetwork
from repro.overlay.simulator import Simulator


class TestFabric:
    def test_create_defaults(self):
        fab = Fabric.create(seed=3)
        assert fab.network.sim is fab.sim
        assert fab.tracer is NOOP_TRACER
        assert fab.channel is None

    def test_create_tracing_and_resilience(self):
        fab = Fabric.create(seed=3, tracing=True, resilient=True)
        assert isinstance(fab.tracer, Tracer)
        assert fab.network.tracer is fab.tracer
        assert fab.channel is not None
        assert fab.channel.network is fab.network

    def test_retry_implies_channel(self):
        fab = Fabric.create(seed=0, retry=RetryPolicy(max_attempts=2))
        assert fab.channel is not None

    def test_mismatched_simulator_rejected(self):
        net = SimNetwork(Simulator(1))
        with pytest.raises(Exception):
            Fabric(Simulator(2), net)

    def test_wrong_type_rejected_with_clear_error(self):
        with pytest.raises(TypeError, match="ChordRing"):
            ChordRing(object())


class TestDeprecations:
    def test_bare_network_rejected(self):
        # The one-release window for passing a SimNetwork is over: a ring
        # must not exist without the fabric its RPCs go through.
        net = SimNetwork(Simulator(5))
        with pytest.raises(TypeError, match="ChordRing"):
            ChordRing(net)
        with pytest.raises(TypeError, match="KademliaOverlay"):
            KademliaOverlay(net)

    def test_channel_kwarg_removed(self):
        # A hand-threaded channel was one the fabric did not know about.
        fab = Fabric.create(seed=5)
        channel = ReliableChannel(fab.network, RetryPolicy(max_attempts=2))
        for build in (lambda: ChordRing(fab, channel=channel),
                      lambda: KademliaOverlay(fab, channel=channel),
                      lambda: DHTBackend(ChordRing(fab), channel=channel)):
            with pytest.raises(TypeError, match="channel"):
                build()

    def test_dosn_loose_kwargs_removed(self):
        # The one-release deprecation window for the loose constructor
        # kwargs is over: DosnConfig is the only spelling now.
        with pytest.raises(TypeError, match="unexpected"):
            DosnNetwork(architecture="local", seed=1,
                        encrypt_content=False)
        with pytest.raises(TypeError, match="unexpected"):
            DosnNetwork(config=DosnConfig(), level="TOY")

    def test_dosn_unknown_kwarg_is_an_error(self):
        with pytest.raises(TypeError, match="unexpected"):
            DosnNetwork(architecture="local", replicas=3)

    def test_dosn_config_still_spells_the_old_knobs(self):
        net = DosnNetwork(config=DosnConfig(architecture="local",
                                            encrypt_content=False))
        assert net.config.encrypt_content is False


class TestDosnConfig:
    def test_validates_architecture(self):
        with pytest.raises(OverlayError):
            DosnConfig(architecture="blockchain")

    def test_concurrent_is_an_accepted_constant(self):
        assert DosnConfig().concurrent is True
        assert DosnConfig(concurrent=True) == DosnConfig()
        with pytest.raises(OverlayError, match="serial-sum"):
            DosnConfig(concurrent=False)

    def test_with_overrides(self):
        base = DosnConfig(architecture="dht", replication=2)
        swept = base.with_overrides(replication=4)
        assert swept.replication == 4
        assert base.replication == 2  # frozen original untouched

    def test_positional_args_override_config(self):
        net = DosnNetwork("local", 42, config=DosnConfig(seed=1))
        assert net.config.architecture == "local"
        assert net.config.seed == 42

    def test_tracing_config_installs_real_tracer(self):
        net = DosnNetwork(config=DosnConfig(architecture="local",
                                            tracing=True))
        net.add_user("alice")
        net.post("alice", "hi")
        assert any(s.name == "dosn.post" for s in net.tracer.spans)

    def test_stable_public_surface(self):
        import repro.dosn.api as api
        assert api.__all__ == ["ARCHITECTURES", "DOSN_SPEC", "DosnConfig",
                               "DosnNetwork"]

PEERS = [f"p{i}" for i in range(6)]


def _ring(fab):
    ring = ChordRing(fab, replication=3)
    for name in PEERS:
        ring.add_node(name)
    ring.build()
    return ring


class TestOpContextBareFabric:
    """Nothing attached: every decision is the empty path."""

    def test_no_deadline_identity_order_no_answer(self):
        fab = Fabric.create(seed=4)
        _ring(fab)
        ctx = fab.op("p0")
        assert ctx.deadline is NO_DEADLINE
        ctx.spent = 1e9
        assert not ctx.expired("chord_lookup")
        assert fab.network.stats.deadline_expired == 0
        holders = ["p3", "p1", "p2"]
        assert ctx.order(holders) is holders
        assert ctx.answer("chord", "p1", "some-key") is None
        ctx.check_claim("chord", "p1", "p2")        # nothing to check
        ctx.visit("p1")                              # nobody is counting
        assert ctx.visited is None

    def test_calls_are_plain_rpcs_and_failures_are_not_remembered(self):
        fab = Fabric.create(seed=4)
        _ring(fab)
        ctx = fab.op("p0")
        ok, rtt, _cause = ctx.call("p0", "p1", "chord_step")
        assert ok and ctx.spent == rtt
        assert fab.network.stats.summary()["messages"] == 2
        ctx.write_off("p1")      # a bare client keeps re-probing
        assert ctx.avoid == set()


class TestOpContextAllOn:
    """Channel + overload + membership + adversary/defense attached."""

    def _fabric(self, **adversary):
        fab = Fabric.create(
            seed=4, resilient=True, overload=OverloadConfig(op_budget=1.0),
            adversary=AdversaryConfig(
                compromised=frozenset({"p1", "p2"}),
                defense=DefenseConfig(), **adversary))
        membership = SwimMembership(fab)
        _ring(fab)
        for name in PEERS:
            membership.register(name)
        return fab

    def test_deadline_is_minted_checked_and_propagated(self):
        fab = self._fabric()
        ctx = fab.op("p0")
        assert ctx.deadline.remaining(fab.sim.now) == 1.0
        assert not ctx.expired("chord_lookup")
        ok, rtt, _cause = ctx.call("p0", "p3", "chord_step")
        assert ok and ctx.spent == rtt
        ctx.spent = 1.0
        assert ctx.expired("chord_lookup")
        assert fab.network.stats.deadline_expired == 1
        assert fab.metrics.get_counter_value(
            "overload.deadline_expired", kind="chord_lookup") == 1
        # the callee sees only what is left: nothing, so no RPC is issued
        before = fab.network.stats.messages
        reply = ctx.call("p0", "p3", "chord_step")
        assert not reply.ok and fab.network.stats.messages == before
        assert reply.cause == "deadline_expired"
        # the clock is frozen during an operation: a nested operation's
        # fresh budget ends when its caller's does
        assert fab.op("p0").deadline.expires_at == ctx.deadline.expires_at

    def test_fanout_branches_overlap_and_dependent_calls_sum(self):
        fab = Fabric.create(seed=4)
        _ring(fab)
        ctx = fab.op("p0")
        latencies = [ctx.call("p0", dst, "quorum_read", fanout=True).latency
                     for dst in ("p1", "p2", "p3")]
        assert ctx.spent == max(latencies) < sum(latencies)
        # a call that is not a fan-out branch waits for what came before
        chained = ctx.call("p0", "p4", "chord_replica_read").latency
        assert ctx.spent == pytest.approx(max(latencies) + chained)

    def test_the_serial_model_cannot_be_selected(self):
        with pytest.raises(TypeError):
            Fabric.create(seed=4, concurrent=False)
        with pytest.raises(TypeError):
            Fabric.create(seed=4, concurrent=True)

    def test_order_puts_dead_then_quarantined_holders_last(self):
        fab = self._fabric()
        ctx = fab.op("p0")
        assert list(ctx.order(["p3", "p4", "p5"])) == ["p3", "p4", "p5"]
        fab.membership.view_of("p0").set_state("p3", DEAD)
        assert list(ctx.order(["p3", "p4", "p5"])) == ["p4", "p5", "p3"]
        fab.adversary.quarantine.flag_provable("p4", reason="cert")
        assert list(ctx.order(["p3", "p4", "p5"])) == ["p5", "p3", "p4"]

    def test_avoid_is_seeded_from_the_view_and_grows_by_write_off(self):
        fab = self._fabric()
        fab.membership.view_of("p0").set_state("p3", DEAD)
        ctx = fab.op("p0")
        assert ctx.avoid == {"p3"}
        ctx.write_off("p4")
        assert ctx.avoid == {"p3", "p4"}
        assert fab.op("p5").avoid == set()   # p5's view buried nobody

    def test_forged_answer_reaches_a_bare_client(self):
        fab = self._fabric(behaviors=("eclipse",))
        visited = set()
        ctx = fab.op("p0", visited=visited)
        ctx.visit("p1")
        assert visited == {"p1"}
        assert ctx.answer("chord", "p3", "k") is None    # honest responder
        forged = ctx.answer("chord", "p1", "k")
        assert forged.final[0] == "p2"                   # the accomplice

    def test_certified_context_catches_a_chosen_id(self):
        fab = self._fabric(behaviors=("eclipse", "chosen_id"))
        ctx = fab.op("p0", certified=True)
        ctx.check_claim("chord", "p3", "p4")      # honest claims pass
        caught = 0
        for i in range(16):         # about half the keys get a chosen id
            try:
                ctx.answer("chord", "p1", f"key{i}")
            except LookupError_:
                caught += 1
        assert 0 < caught < 16
        assert "p1" in fab.adversary.quarantine.banned

    def test_dropped_answer_raises(self):
        fab = self._fabric(behaviors=("drop",))
        with pytest.raises(LookupError_, match="swallowed"):
            fab.op("p0").answer("kad", "p1", "k")


class TestRpcFailureCauseMetrics:
    def test_loss_cause_recorded_with_kind_and_direction(self):
        fab = Fabric.create(seed=2, loss_rate=0.999999)
        from repro.overlay.network import SimNode
        for name in ("a", "b"):
            fab.network.register(SimNode(name))
        ok = fab.network.rpc_issue("a", "b", kind="chord_step").ok
        assert not ok
        assert fab.metrics.get_counter_value(
            "net.rpc_failures", kind="chord_step", cause="loss",
            direction="request") == 1

    def test_offline_cause_recorded(self):
        fab = Fabric.create(seed=2)
        from repro.overlay.network import SimNode
        for name in ("a", "b"):
            fab.network.register(SimNode(name))
        fab.network.node("b").go_offline()
        ok = fab.network.rpc_issue("a", "b", kind="kad_find").ok
        assert not ok
        assert fab.metrics.get_counter_value(
            "net.rpc_failures", kind="kad_find", cause="offline",
            direction="request") == 1

    def test_partition_cause_recorded(self):
        plan = FaultPlan(seed=2, horizon=100.0)
        plan.add(Partition(groups=[frozenset({"a"})], start=0.0, end=100.0))
        fab = Fabric.create(seed=2, faults=plan)
        from repro.overlay.network import SimNode
        for name in ("a", "b"):
            fab.network.register(SimNode(name))
        ok = fab.network.rpc_issue("a", "b", kind="chord_final").ok
        assert not ok
        assert fab.metrics.get_counter_value(
            "net.rpc_failures", kind="chord_final", cause="partition",
            direction="request") == 1

    def test_success_records_no_failure(self):
        fab = Fabric.create(seed=2)
        from repro.overlay.network import SimNode
        for name in ("a", "b"):
            fab.network.register(SimNode(name))
        ok = fab.network.rpc_issue("a", "b", kind="chord_step").ok
        assert ok
        assert fab.metrics.get_counter_value(
            "net.rpc_failures", kind="chord_step", cause="loss",
            direction="request") == 0


class TestCryptoProfiling:
    """``Tracer(wall_clock=True)`` is the one wall-clock profiler: the
    ``crypto.*`` spans time the primitives and carry their volume."""

    def _post_and_read(self, **tracing):
        net = DosnNetwork(config=DosnConfig(architecture="local", seed=5,
                                            **tracing))
        for name in ["alice", "bob"]:
            net.add_user(name)
        net.befriend("alice", "bob")
        net.read("bob", "alice", net.post("alice", "x" * 100))
        return {s.name: s for s in net.tracer.spans
                if s.name.startswith("crypto.")}

    def test_wall_clock_tracer_times_the_crypto_spans(self):
        spans = self._post_and_read(wall_clock=True)
        assert set(spans) == {"crypto.sign", "crypto.encrypt",
                              "crypto.decrypt", "crypto.verify"}
        assert all(span.wall_ns > 0 for span in spans.values())
        assert spans["crypto.encrypt"].attrs["nbytes"] > 100
        assert spans["crypto.decrypt"].attrs["nbytes"] > 100

    def test_wall_time_is_off_unless_asked_for(self):
        spans = self._post_and_read(tracing=True)
        assert spans and all(s.wall_ns is None for s in spans.values())
