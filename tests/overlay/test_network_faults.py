"""Tests for SimNetwork failure paths, the fault-injection subsystem, and
the resilient RPC layer (ReliableChannel / CircuitBreaker)."""

import pytest

from repro.exceptions import SimulationError
from repro.fabric import Fabric
from repro.faults import (CircuitBreaker, Corruption, Crash, FaultPlan,
                          LossBurst, Partition, ReliableChannel, RetryPolicy,
                          SlowLink)
from repro.faults.resilience import (BREAKER_COOLDOWN,
                                     BREAKER_FAILURE_THRESHOLD, HEDGE_DELAY)
from repro.overlay.chord import ChordRing
from repro.overlay.churn import ExponentialOnOff, apply_churn_to_network
from repro.overlay.network import Message, SimNetwork, SimNode
from repro.overlay.simulator import FixedLatency, Simulator


class _Echo(SimNode):
    def __init__(self, node_id):
        super().__init__(node_id)
        self.received = []

    def on_ping(self, message):
        self.received.append(message)


class _ScriptedRng:
    """random() returns scripted values; everything else is fixed."""

    def __init__(self, values):
        self.values = list(values)

    def random(self):
        return self.values.pop(0)

    def uniform(self, a, b):
        return a


def _net(loss=0.0, faults=None, peers=("a", "b")):
    sim = Simulator(1)
    net = SimNetwork(sim, latency=FixedLatency(0.05), loss_rate=loss,
                     faults=faults)
    nodes = [_Echo(p) for p in peers]
    for node in nodes:
        net.register(node)
    return (sim, net) + tuple(nodes)


class TestFailurePaths:
    def test_send_to_offline_peer_drops(self):
        sim, net, a, b = _net()
        b.go_offline()
        net.send(Message(kind="ping", src="a", dst="b"))
        sim.run()
        assert b.received == []
        assert net.stats.drops == 1
        assert net.stats.fault_drops == 0  # churn, not an injected fault

    def test_send_to_unknown_peer_drops(self):
        sim, net, a, b = _net()
        net.send(Message(kind="ping", src="a", dst="ghost"))
        sim.run()
        assert net.stats.drops == 1

    def test_loss_process_drops(self):
        sim, net, a, b = _net(loss=0.5)
        for _ in range(100):
            net.send(Message(kind="ping", src="a", dst="b"))
        sim.run()
        assert net.stats.drops == 100 - len(b.received)
        assert 20 < net.stats.drops < 80
        assert net.stats.fault_drops == 0

    def test_rpc_timeout_against_offline_peer(self):
        sim, net, a, b = _net()
        b.go_offline()
        ok, rtt, _ = net.rpc_issue("a", "b")
        assert not ok
        assert net.stats.timeouts == 1
        assert net.stats.messages == 1  # the request was still sent
        assert rtt == pytest.approx(0.20)  # 4x the one-way latency

    @pytest.mark.parametrize("loss", [0.0, 0.5])   # fair and general settle
    def test_rpc_issue_from_an_offline_source_fails(self, loss):
        sim, net, a, b = _net(loss=loss)
        a.go_offline()
        reply = net.rpc_issue("a", "b", "ping")
        assert (reply.ok, reply.cause) == (False, "offline")
        assert reply.latency == pytest.approx(0.20)
        assert net.stats.messages == 1 and net.stats.timeouts == 1
        assert net.metrics.get_counter_value(
            "net.rpc_failures", kind="ping", cause="offline",
            direction="request") == 1
        # a caller the fabric never registered is a client, up when it calls
        net = _net()[1]
        assert net.rpc_issue("client", "b", "ping").ok

    def test_rpc_request_vs_response_loss_accounting(self):
        sim, net, a, b = _net(loss=0.5)
        # request direction lost: one message charged
        net._rng = _ScriptedRng([0.4])
        ok = net.rpc_issue("a", "b").ok
        assert not ok and net.stats.messages == 1
        assert net.stats.timeouts == 1
        # request delivered, response lost: both messages charged
        net.stats.reset()
        net._rng = _ScriptedRng([0.9, 0.4])
        ok = net.rpc_issue("a", "b").ok
        assert not ok and net.stats.messages == 2
        assert net.stats.timeouts == 1
        # both directions survive
        net.stats.reset()
        net._rng = _ScriptedRng([0.9, 0.9])
        ok = net.rpc_issue("a", "b").ok
        assert ok and net.stats.messages == 2
        assert net.stats.timeouts == 0

    def test_stats_reset_zeroes_resilience_counters(self):
        plan = (FaultPlan(seed=3)
                .add(Partition(groups=[{"b"}]))
                .add(Corruption(rate=1.0, peers={"c"})))
        sim, net, a, b, c = _net(faults=plan, peers=("a", "b", "c"))
        threshold = BREAKER_FAILURE_THRESHOLD
        channel = ReliableChannel(
            net, RetryPolicy(max_attempts=threshold), CircuitBreaker())
        # ``threshold`` partitioned attempts, then the breaker trips
        assert not channel.call("a", "b")[0]
        # the open breaker fails the next call fast
        assert not channel.call("a", "b")[0]
        # every response from c arrives garbled
        assert not channel.call("a", "c")[0]
        # both breakers are open by now: a two-slot race, one hedge
        assert not channel.hedged("a", ["b", "c"])[0]
        assert net.stats.messages > 0
        assert net.stats.retries == 2 * (threshold - 1)
        assert net.stats.breaker_trips == 2
        assert net.stats.breaker_fastfails == 3
        assert net.stats.hedges == 1
        assert net.stats.fault_drops == threshold
        assert net.stats.corrupted == threshold
        net.stats.reset()
        assert net.stats.messages == 0
        assert net.stats.retries == 0
        assert net.stats.breaker_trips == 0
        assert net.stats.breaker_fastfails == 0
        assert net.stats.hedges == 0
        assert net.stats.fault_drops == 0
        assert net.stats.corrupted == 0

    def test_stats_reset_covers_every_field(self):
        from repro.overlay.network import STATS_FIELDS, NetworkStats
        sim, net, a, b = _net()
        # one event in every labelled member of every family the view reads
        families = set()
        for sources in STATS_FIELDS.values():
            for family, label, values in sources:
                families.add(family)
                for value in values or (None,):
                    net.metrics.inc(
                        family, **({} if label is None else {label: value}))
        net.metrics.inc("storage.quorum_writes")
        assert all(net.stats.summary().values())  # every field moved
        net.stats.reset()
        assert net.stats.summary() == NetworkStats().summary()
        for family in families:
            members = net.metrics.family(family)
            assert members and not any(m.value for m in members)
        # nothing but what the view reads: E14 counts across resets
        assert net.metrics.get_counter_value("storage.quorum_writes") == 1


class TestFaultPlan:
    def test_partition_blocks_cross_group_traffic(self):
        plan = FaultPlan(seed=3).add(
            Partition(groups=[{"a"}], start=0.0, end=100.0))
        sim, net, a, b = _net(faults=plan)
        ok = net.rpc_issue("a", "b").ok
        assert not ok
        assert net.stats.fault_drops == 1
        net.send(Message(kind="ping", src="b", dst="a"))
        sim.run(until=1.0)
        assert a.received == []
        assert net.stats.fault_drops == 2
        # same side of the cut is unaffected, and the window expires
        sim.run(until=200.0)
        ok = net.rpc_issue("a", "b").ok
        assert ok

    def test_partition_groups_must_be_disjoint(self):
        with pytest.raises(SimulationError):
            Partition(groups=[{"a", "b"}, {"b", "c"}])

    def test_burst_schedule_deterministic_from_seed(self):
        def bursts(seed):
            fault = LossBurst(rate=0.3, mean_burst=10, mean_gap=30)
            fault.bind(seed, 0, 1000.0)
            return fault.windows

        assert bursts(5) == bursts(5)
        assert bursts(5) != bursts(6)
        for start, end in bursts(5):
            assert 0 <= start < end <= 1000.0

    def test_burst_loss_only_inside_bursts(self):
        fault = LossBurst(rate=0.3, mean_burst=10, mean_gap=30)
        fault.bind(7, 0, 1000.0)
        (start, end) = fault.windows[0]
        mid = (start + end) / 2
        assert fault.loss_rate("a", "b", mid) == 0.3
        assert fault.loss_rate("a", "b", start - 0.001) == 0.0
        assert fault.loss_rate("a", "b", end + 0.001) in (0.0, 0.3)

    def test_slow_link_multiplies_latency(self):
        plan = FaultPlan(seed=1).add(
            SlowLink(factor=3.0, peers={"b"}, start=0.0, end=50.0))
        sim, net, a, b = _net(faults=plan)
        ok, rtt, _ = net.rpc_issue("a", "b")
        assert ok and rtt == pytest.approx(0.30)  # 2 x 0.05 x 3
        sim.run(until=60.0)
        ok, rtt, _ = net.rpc_issue("a", "b")
        assert ok and rtt == pytest.approx(0.10)  # window over

    def test_crash_wipes_state_and_restart_recovers(self):
        plan = FaultPlan(seed=1).add(
            Crash("b", at=10.0, restart_at=20.0, lose_state=True))
        sim, net, a, b = _net(faults=plan)
        b.store = {"k": b"v"}
        sim.run(until=15.0)
        assert not b.online
        assert b.store == {}  # volatile state lost
        sim.run(until=25.0)
        assert b.online

    def test_crash_restart_order_validated(self):
        with pytest.raises(SimulationError):
            Crash("b", at=10.0, restart_at=5.0)

    def test_corruption_flags_messages(self):
        plan = FaultPlan(seed=1).add(Corruption(rate=1.0))
        sim, net, a, b = _net(faults=plan)
        net.send(Message(kind="ping", src="a", dst="b"))
        sim.run()
        assert len(b.received) == 1
        assert b.received[0].corrupted
        assert net.stats.corrupted == 1
        # a corrupted RPC response reads as a failure
        ok = net.rpc_issue("a", "b").ok
        assert not ok
        assert net.stats.corrupted == 2

    def test_plan_installs_once(self):
        plan = FaultPlan(seed=1)
        sim, net, a, b = _net(faults=plan)
        with pytest.raises(SimulationError):
            net.install_faults(FaultPlan(seed=2))
        with pytest.raises(SimulationError):
            plan.add(Corruption(rate=0.5))

    def test_fault_runs_are_deterministic(self):
        def run():
            plan = (FaultPlan(seed=9, horizon=500.0)
                    .add(LossBurst(rate=0.4, mean_burst=20, mean_gap=20))
                    .add(Partition(groups=[{"a"}], start=100.0, end=300.0)))
            sim, net, a, b = _net(faults=plan)
            trace = []
            for i in range(50):
                sim.run(until=10.0 * i)
                trace.append(net.rpc_issue("a", "b"))
            return trace, net.stats.fault_drops

        assert run() == run()


class TestReliableChannel:
    def test_retry_masks_transient_loss(self):
        sim, net, a, b = _net(loss=0.5)
        channel = ReliableChannel(net, RetryPolicy(max_attempts=3))
        # attempt 1: request lost; attempt 2: clean round trip
        net._rng = _ScriptedRng([0.4, 0.9, 0.9])
        ok, elapsed = channel.call("a", "b")
        assert ok
        assert net.stats.retries == 1
        assert elapsed > 0.25  # timeout + backoff + the successful RTT

    def test_retries_are_bounded(self):
        sim, net, a, b = _net()
        b.go_offline()
        channel = ReliableChannel(net, RetryPolicy(max_attempts=3))
        ok, _ = channel.call("a", "b")
        assert not ok
        assert net.stats.timeouts == 3
        assert net.stats.retries == 2  # retries = attempts - 1

    def test_breaker_opens_and_fails_fast(self):
        sim, net, a, b = _net()
        b.go_offline()
        breaker = CircuitBreaker()
        channel = ReliableChannel(
            net, RetryPolicy(max_attempts=BREAKER_FAILURE_THRESHOLD), breaker)
        ok, _ = channel.call("a", "b")  # threshold failures -> trips
        assert not ok
        assert net.stats.breaker_trips == 1
        before = net.stats.messages
        ok, _ = channel.call("a", "b")  # open: fail fast, no traffic
        assert not ok
        assert net.stats.messages == before
        assert net.stats.breaker_fastfails == 1

    def test_breaker_half_open_probe_recovers(self):
        sim, net, a, b = _net()
        b.go_offline()
        breaker = CircuitBreaker()
        channel = ReliableChannel(
            net, RetryPolicy(max_attempts=BREAKER_FAILURE_THRESHOLD), breaker)
        channel.call("a", "b")
        assert breaker.state("b", net.sim.now) == "open"
        b.go_online()
        # cooldown expires -> half-open probe allowed
        sim.run(until=BREAKER_COOLDOWN + 5.0)
        ok, _ = channel.call("a", "b")
        assert ok
        assert breaker.state("b", net.sim.now) == "closed"

    def test_failed_half_open_probe_reopens(self):
        sim, net, a, b = _net()
        b.go_offline()
        breaker = CircuitBreaker()
        channel = ReliableChannel(
            net, RetryPolicy(max_attempts=BREAKER_FAILURE_THRESHOLD), breaker)
        channel.call("a", "b")
        sim.run(until=BREAKER_COOLDOWN + 5.0)
        ok, _ = channel.call("a", "b")  # half-open probe fails
        assert not ok
        assert breaker.state("b", net.sim.now + 5.0) == "open"

    def test_hedged_call_finds_live_replica(self):
        sim, net, *_ = _net(peers=("a", "b", "c", "d"))
        net.node("b").go_offline()
        net.node("c").go_offline()
        channel = ReliableChannel(net, RetryPolicy(max_attempts=1))
        ok, winner, _ = channel.hedged("a", ["b", "c", "d"])
        assert ok and winner == "d"
        assert net.stats.hedges == 2


class TestByzantineHolderFaults:
    """The holder-level fault family: windows, determinism, plan query."""

    def test_holder_faults_filters_by_holder_and_window(self):
        from repro.faults import StaleServe
        plan = FaultPlan(seed=5).add(
            StaleServe(holders={"p1"}, start=10.0, end=20.0))
        sim = Simulator(seed=5)
        net = SimNetwork(sim, latency=FixedLatency(0.05))
        net.install_faults(plan)
        assert not plan.holder_faults("p1", 5.0)
        assert len(plan.holder_faults("p1", 15.0)) == 1
        assert not plan.holder_faults("p1", 20.0)
        assert not plan.holder_faults("p2", 15.0)

    def test_empty_holder_set_rejected(self):
        from repro.faults import CorruptBlob
        with pytest.raises(SimulationError):
            CorruptBlob(holders=frozenset())

    def test_key_scoped_fault_spares_co_located_keys(self):
        """A liar targeting one object serves its other keys honestly.

        Replica placements overlap, so without scoping a per-key fault
        assignment silently compounds across every key the holder serves.
        """
        from repro.faults import StaleServe
        scoped = StaleServe(holders={"p1"}, keys={"k1"})
        assert scoped.applies_to("k1")
        assert not scoped.applies_to("k2")
        unscoped = StaleServe(holders={"p1"})
        assert unscoped.applies_to("k1") and unscoped.applies_to("k2")

    def test_corrupt_blob_rate_validated(self):
        from repro.faults import CorruptBlob
        with pytest.raises(SimulationError):
            CorruptBlob(holders={"p1"}, rate=1.5)

    def test_corruption_draws_are_seed_deterministic(self):
        from repro.faults import CorruptBlob

        def draws(seed):
            fault = CorruptBlob(holders={"p1"}, rate=0.5)
            fault.bind(seed, 0, 100.0)
            return [fault.garbles("p1", f"k{i}", "reader")
                    for i in range(32)]

        assert draws(3) == draws(3)
        assert draws(3) != draws(4)
        assert any(draws(3)) and not all(draws(3))  # rate=0.5 mixes

    def test_garble_changes_bytes(self):
        from repro.faults import CorruptBlob
        blob = b"x" * 64
        assert CorruptBlob.garble(blob) != blob
        assert CorruptBlob.garble(b"") != b""

    def test_equivocate_is_per_reader_deterministic(self):
        from repro.faults import Equivocate
        fault = Equivocate(holders={"p1"})
        fault.bind(7, 0, 100.0)
        picks = {reader: fault.pick_version("p1", "k", reader, 10)
                 for reader in (f"u{i}" for i in range(12))}
        again = {reader: fault.pick_version("p1", "k", reader, 10)
                 for reader in (f"u{i}" for i in range(12))}
        assert picks == again
        assert len(set(picks.values())) > 1  # different readers fork

    def test_stale_serve_always_picks_the_oldest(self):
        from repro.faults import StaleServe
        fault = StaleServe(holders={"p1"})
        fault.bind(7, 0, 100.0)
        assert all(fault.pick_version("p1", "k", f"u{i}", 5) == 0
                   for i in range(8))


class TestBreakerStateGauge:
    """Satellite: the breaker's per-destination state as a labelled gauge."""

    def test_state_walks_closed_open_half_open(self):
        breaker = CircuitBreaker()
        cooled = BREAKER_COOLDOWN
        assert breaker.state("b", 0.0) == "closed"
        for _ in range(BREAKER_FAILURE_THRESHOLD - 1):
            breaker.record_failure("b", 0.0)
        assert breaker.state("b", 0.0) == "closed"  # below threshold
        breaker.record_failure("b", 0.0)
        assert breaker.state("b", cooled / 2) == "open"
        assert breaker.state("b", cooled) == "half_open"
        breaker.record_failure("b", cooled)  # failed half-open probe
        assert breaker.state("b", 1.5 * cooled) == "open"
        breaker.record_success("b")
        assert breaker.state("b", 1.5 * cooled) == "closed"

    def test_gauge_tracks_breaker_per_destination(self):
        from repro.faults import BREAKER_STATE_VALUES
        sim, net, a, b = _net()
        b.go_offline()
        breaker = CircuitBreaker()
        channel = ReliableChannel(
            net, RetryPolicy(max_attempts=BREAKER_FAILURE_THRESHOLD), breaker)
        gauge = net.metrics.gauge("channel.breaker_state", dst="b")
        channel.call("a", "b")  # trips open
        assert gauge.value == BREAKER_STATE_VALUES["open"]
        b.go_online()
        sim.run(until=BREAKER_COOLDOWN + 5.0)
        channel.call("a", "b")  # half-open probe succeeds -> closed
        assert gauge.value == BREAKER_STATE_VALUES["closed"]
        # an untouched destination never even creates a gauge series
        assert net.metrics.gauge("channel.breaker_state", dst="a").value \
            == 0.0

    def test_gauge_reopens_after_failed_probe(self):
        from repro.faults import BREAKER_STATE_VALUES
        sim, net, a, b = _net()
        b.go_offline()
        breaker = CircuitBreaker()
        channel = ReliableChannel(
            net, RetryPolicy(max_attempts=BREAKER_FAILURE_THRESHOLD), breaker)
        channel.call("a", "b")
        sim.run(until=BREAKER_COOLDOWN + 5.0)
        channel.call("a", "b")  # half-open probe fails -> re-open
        gauge = net.metrics.gauge("channel.breaker_state", dst="b")
        assert gauge.value == BREAKER_STATE_VALUES["open"]
        assert breaker.state("b", net.sim.now + 5.0) == "open"


#: three-attempt calls that fail enough attempts to trip a breaker
_CALLS_TO_TRIP = -(-BREAKER_FAILURE_THRESHOLD // 3)


class TestMembershipChannel:
    """The adaptive liveness policy replacing fixed breaker thresholds."""

    def _channel(self, n=4, one_way=0.05):
        from repro.fabric import Fabric
        from repro.membership import SwimMembership
        from repro.overlay.simulator import FixedLatency
        fab = Fabric.create(seed=5, latency=FixedLatency(one_way),
                            retry=RetryPolicy(max_attempts=3),
                            breaker=CircuitBreaker())
        membership = SwimMembership(fab)
        for i in range(n):
            fab.network.register(_Echo(f"p{i}"))
            membership.register(f"p{i}")
        return fab, fab.channel, membership

    def test_confirmed_dead_destination_fails_fast(self):
        fab, channel, membership = self._channel()
        membership.view_of("p0").set_state("p1", "dead")
        before = fab.network.stats.messages
        ok, elapsed = channel.call("p0", "p1")
        assert not ok and elapsed == 0.0
        assert fab.network.stats.messages == before  # no traffic paid
        assert fab.network.stats.breaker_fastfails == 1
        assert fab.metrics.get_counter_value(
            "channel.membership_fastfails", kind="rpc") == 1

    def test_suspect_destination_gets_a_single_attempt(self):
        fab, channel, membership = self._channel()
        membership.view_of("p0").set_state("p1", "suspect")
        fab.network.node("p1").go_offline()
        ok, _ = channel.call("p0", "p1")
        assert not ok
        assert fab.network.stats.timeouts == 1  # not max_attempts
        assert fab.network.stats.retries == 0

    def test_healthy_destination_keeps_full_retries(self):
        fab, channel, membership = self._channel()
        fab.network.node("p1").go_offline()
        ok, _ = channel.call("p0", "p1")
        assert not ok
        assert fab.network.stats.timeouts == 3

    def test_success_feeds_the_view_as_evidence(self):
        fab, channel, membership = self._channel()
        view = membership.view_of("p0")
        view.set_state("p1", "suspect")
        fab.sim.run(until=5.0)
        ok, _ = channel.call("p0", "p1")
        assert ok
        # Lifeguard-style local refutation
        assert view.record("p1").state == "alive"

    def test_breaker_not_consulted_when_view_exists(self):
        fab, channel, membership = self._channel()
        fab.network.node("p1").go_offline()
        for _ in range(_CALLS_TO_TRIP):  # would trip the breaker
            channel.call("p0", "p1")
        assert fab.network.stats.breaker_trips == 0
        fab.network.node("p1").go_online()
        ok, _ = channel.call("p0", "p1")  # no open breaker blocking it
        assert ok

    def test_non_member_source_still_uses_the_breaker(self):
        fab, channel, membership = self._channel()
        fab.network.register(_Echo("outsider"))
        fab.network.node("p1").go_offline()
        for _ in range(_CALLS_TO_TRIP):
            channel.call("outsider", "p1")
        assert fab.network.stats.breaker_trips == 1

    def test_hedged_probes_healthy_holders_first(self):
        # RTT 0.04 < HEDGE_DELAY: the healthy holder has answered before
        # the hedge to the dead one would launch
        fab, channel, membership = self._channel(one_way=0.02)
        assert 0.04 < HEDGE_DELAY
        view = membership.view_of("p0")
        view.set_state("p1", "dead")
        ok, winner, elapsed = channel.hedged("p0", ["p1", "p2"])
        assert ok and winner == "p2"
        assert elapsed == pytest.approx(0.04)
        assert fab.network.stats.hedges == 0  # the dead one was never paid

    def test_hedged_launches_the_dead_holder_last_and_it_never_wins(self):
        # RTT 0.10 > HEDGE_DELAY: the hedge fires while the healthy
        # holder is still in flight, and goes to the dead one — which,
        # launched a stagger step late, cannot beat it
        fab, channel, membership = self._channel(one_way=0.05)
        assert 0.10 > HEDGE_DELAY
        view = membership.view_of("p0")
        view.set_state("p1", "dead")
        ok, winner, elapsed = channel.hedged("p0", ["p1", "p2"])
        assert ok and winner == "p2"
        assert elapsed == pytest.approx(0.10)
        assert fab.network.stats.hedges == 1

    def test_hedged_still_probes_the_dead_as_last_resort(self):
        fab, channel, membership = self._channel()
        view = membership.view_of("p0")
        view.set_state("p1", "dead")  # false confirmation: p1 is up
        fab.network.node("p2").go_offline()
        ok, winner, _ = channel.hedged("p0", ["p1", "p2"])
        assert ok and winner == "p1"


class TestResilientChord:
    def _ring(self, resilient, partitioned):
        from repro.fabric import Fabric
        plan = FaultPlan(seed=11, horizon=1000.0)
        if partitioned:
            plan.add(Partition(
                groups=[{f"p{i}" for i in range(0, 32, 2)}],
                start=0.0, end=1000.0))
        fab = Fabric.create(
            seed=11, latency=FixedLatency(0.02), faults=plan,
            retry=RetryPolicy(max_attempts=3) if resilient else None,
            breaker=CircuitBreaker() if resilient else None)
        sim, net = fab.sim, fab.network
        ring = ChordRing(fab, successor_list_size=8, replication=3)
        for i in range(32):
            ring.add_node(f"p{i}")
        ring.build()
        return sim, net, ring

    def _success_rate(self, ring):
        # place on the true replica set directly (no network traffic) so
        # the comparison below is purely about the read path
        for i in range(12):
            for holder in ring.replica_set(f"key{i}"):
                ring.nodes[holder].store[f"key{i}"] = b"v"
        ok = 0
        for i in range(12):
            try:
                ring.get("p1", f"key{i}")
                ok += 1
            except Exception:
                pass
        return ok / 12

    def test_resilient_get_survives_partition(self):
        _, _, bare_ring = self._ring(resilient=False, partitioned=True)
        _, _, res_ring = self._ring(resilient=True, partitioned=True)
        bare = self._success_rate(bare_ring)
        resilient = self._success_rate(res_ring)
        assert resilient >= max(2 * bare, 0.5)

    def test_resilience_free_in_fair_weather(self):
        _, _, ring = self._ring(resilient=True, partitioned=False)
        assert self._success_rate(ring) == 1.0


class TestReplicaRule:
    """One replica write and one replica read on every fabric: a copy
    lands only on an acknowledged store, and a read routes once, takes
    the routed owner's keys for free and probes every other holder from
    the reader, paying for the ones that are down."""

    def _ring(self, resilient=False, tracing=False):
        fab = Fabric.create(seed=5, latency=FixedLatency(0.02),
                            resilient=resilient, tracing=tracing)
        ring = ChordRing(fab, successor_list_size=4, replication=3)
        for i in range(16):
            ring.add_node(f"p{i}")
        ring.build()
        return fab, ring

    @staticmethod
    def _reader(ring, key):
        return next(name for name in ring.nodes
                    if name not in ring.replica_set(key))

    def test_bare_chord_put_skips_an_offline_replica_and_pays_for_it(self):
        fab, ring = self._ring()
        owner, down, third = ring.replica_set("k")
        ring.nodes[down].go_offline()
        ring.put(self._reader(ring, "k"), "k", b"v")
        assert "k" not in ring.nodes[down].store
        assert ring.nodes[owner].store["k"] == b"v"
        assert ring.nodes[third].store["k"] == b"v"
        assert fab.metrics.get_counter_value(
            "net.rpc_failures", kind="chord_replicate", cause="offline",
            direction="request") == 1

    def test_bare_kad_put_skips_a_node_its_store_never_reached(self):
        from repro.overlay.kademlia import K, KademliaOverlay, kad_id
        names = [f"q{i}" for i in range(24)]
        closest = sorted(names, key=lambda n: kad_id(n) ^ kad_id("k"))[:K]
        cut = closest[1]
        start = next(n for n in names if n not in closest)
        plan = FaultPlan(seed=5, horizon=1000.0)
        plan.add(Partition(groups=[{cut}], start=0.0, end=1000.0))
        fab = Fabric.create(seed=5, latency=FixedLatency(0.02), faults=plan)
        kad = KademliaOverlay(fab)
        for name in names:
            kad.add_node(name)
        kad.bootstrap()
        result = kad.put(start, "k", b"v")
        assert cut in result.closest
        assert "k" not in kad.nodes[cut].store
        assert all(kad.nodes[name].store["k"] == b"v"
                   for name in result.closest if name != cut)
        assert fab.metrics.get_counter_value(
            "net.rpc_failures", kind="kad_store", cause="partition",
            direction="request") == 1

    def test_fair_weather_get_costs_the_same_on_every_fabric(self):
        costs = []
        for resilient in (False, True):
            fab, ring = self._ring(resilient=resilient)
            keys = [f"k{i}" for i in range(8)]
            for key in keys:
                ring.put("p0", key, b"v")
            before = fab.network.stats.messages
            for key in keys:
                assert ring.get(self._reader(ring, key), key)[0] == b"v"
            costs.append(fab.network.stats.messages - before)
        assert costs[0] == costs[1]

    def test_bare_read_pays_for_an_offline_holder_from_the_reader(self):
        fab, ring = self._ring(tracing=True)
        owner, down, third = ring.replica_set("k")
        reader = self._reader(ring, "k")
        ring.put(reader, "k", b"v")
        ring.nodes[owner].wipe_state()  # crashed and restarted empty
        ring.nodes[down].go_offline()   # holds its copy, but is down
        fab.tracer.clear()
        value, route = ring.get(reader, "k")
        assert value == b"v" and route.owner == owner
        assert [(s.attrs["src"], s.attrs["dst"], s.attrs["ok"])
                for s in fab.tracer.spans
                if s.name == "net.rpc"
                and s.attrs["kind"] == "chord_replica_read"] \
            == [(reader, down, False), (reader, third, True)]
        assert fab.network.stats.hedges == 1


class TestChurnSatellites:
    def test_apply_churn_calls_transition_hooks(self):
        class Recorder(SimNode):
            def __init__(self, node_id):
                super().__init__(node_id)
                self.transitions = []

            def go_online(self):
                super().go_online()
                self.transitions.append("up")

            def go_offline(self):
                super().go_offline()
                self.transitions.append("down")

        sim = Simulator(0)
        net = SimNetwork(sim)
        nodes = [Recorder(f"n{i}") for i in range(20)]
        for node in nodes:
            net.register(node)
        model = ExponentialOnOff(seed=4)
        apply_churn_to_network(net, model, 30000.0)
        flipped = [n for n in nodes if n.transitions]
        assert flipped, "some node should have churned offline"
        for node in nodes:
            assert node.online == model.online_at(node.node_id, 30000.0)
            # hooks fire exactly on state changes, never redundantly
            assert len(node.transitions) <= 1
        # re-applying the same instant is a no-op (hooks not re-fired)
        apply_churn_to_network(net, model, 30000.0)
        for node in nodes:
            assert len(node.transitions) <= 1

    def test_online_at_bisect_matches_linear_scan(self):
        model = ExponentialOnOff(seed=8, mean_online=600, mean_offline=900,
                                 horizon=100000.0)
        for peer in ("x", "y"):
            intervals = model.schedule(peer)
            for t in [0.0, 1.0, 99999.0] + \
                    [s for s, _ in intervals] + \
                    [e - 1e-6 for _, e in intervals] + \
                    [(s + e) / 2 for s, e in intervals]:
                expected = any(s <= t < e for s, e in intervals)
                assert model.online_at(peer, t) == expected, t
