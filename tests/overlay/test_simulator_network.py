"""Tests for the discrete-event simulator and the message fabric."""

import pytest

from repro.exceptions import OverlayError, SimulationError
from repro.overlay.network import Message, SimNetwork, SimNode
from repro.overlay.simulator import (LATENCY_HIGH, LATENCY_LOW, FixedLatency,
                                     Simulator, UniformLatency)


class TestSimulator:
    def test_events_fire_in_time_order(self):
        sim = Simulator()
        fired = []
        sim.schedule(3.0, lambda: fired.append("c"))
        sim.schedule(1.0, lambda: fired.append("a"))
        sim.schedule(2.0, lambda: fired.append("b"))
        sim.run()
        assert fired == ["a", "b", "c"]
        assert sim.now == 3.0

    def test_equal_times_fire_in_schedule_order(self):
        sim = Simulator()
        fired = []
        for label in "abcde":
            sim.schedule(1.0, lambda l=label: fired.append(l))
        sim.run()
        assert fired == list("abcde")

    def test_run_until(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: fired.append(1))
        sim.schedule(5.0, lambda: fired.append(5))
        sim.run(until=2.0)
        assert fired == [1]
        assert sim.now == 2.0
        sim.run()
        assert fired == [1, 5]

    def test_max_events(self):
        sim = Simulator()
        for i in range(10):
            sim.schedule(float(i), lambda: None)
        assert sim.run(max_events=4) == 4
        assert sim.run() == 6

    def test_events_scheduled_during_run(self):
        sim = Simulator()
        fired = []

        def first():
            fired.append("first")
            sim.schedule(1.0, lambda: fired.append("nested"))

        sim.schedule(1.0, first)
        sim.run()
        assert fired == ["first", "nested"]
        assert sim.now == 2.0

    def test_negative_delay_rejected(self):
        with pytest.raises(SimulationError):
            Simulator().schedule(-1.0, lambda: None)

    def test_determinism(self):
        def trace(seed):
            sim = Simulator(seed)
            values = []
            for _ in range(5):
                sim.schedule(sim.rng.random(), lambda: values.append(sim.now))
            sim.run()
            return values
        assert trace(42) == trace(42)
        assert trace(42) != trace(43)

    def test_split_rng_independent(self):
        sim = Simulator(7)
        a = sim.split_rng("a")
        b = sim.split_rng("b")
        assert a.random() != b.random()


class _Echo(SimNode):
    def __init__(self, node_id):
        super().__init__(node_id)
        self.received = []

    def on_ping(self, message):
        self.received.append(message.payload["n"])


class TestSimNetwork:
    def _net(self, loss=0.0):
        sim = Simulator(1)
        net = SimNetwork(sim, latency=FixedLatency(0.05), loss_rate=loss)
        a, b = _Echo("a"), _Echo("b")
        net.register(a)
        net.register(b)
        return sim, net, a, b

    def test_delivery(self):
        sim, net, a, b = self._net()
        net.send(Message(kind="ping", src="a", dst="b", payload={"n": 1}))
        sim.run()
        assert b.received == [1]
        assert net.stats.messages == 1

    def test_offline_node_drops(self):
        sim, net, a, b = self._net()
        b.go_offline()
        net.send(Message(kind="ping", src="a", dst="b", payload={"n": 1}))
        sim.run()
        assert b.received == []
        assert net.stats.drops == 1

    def test_unknown_destination_drops(self):
        sim, net, a, b = self._net()
        net.send(Message(kind="ping", src="a", dst="ghost", payload={"n": 1}))
        sim.run()
        assert net.stats.drops == 1

    def test_unknown_handler_raises(self):
        sim, net, a, b = self._net()
        net.send(Message(kind="mystery", src="a", dst="b"))
        with pytest.raises(OverlayError):
            sim.run()

    def test_loss_rate(self):
        sim, net, a, b = self._net(loss=0.5)
        for i in range(200):
            net.send(Message(kind="ping", src="a", dst="b",
                             payload={"n": i}))
        sim.run()
        assert 40 < len(b.received) < 160
        assert net.stats.drops == 200 - len(b.received)

    def test_invalid_loss_rate(self):
        with pytest.raises(SimulationError):
            SimNetwork(Simulator(), loss_rate=1.0)

    def test_duplicate_registration_rejected(self):
        sim, net, a, b = self._net()
        with pytest.raises(OverlayError):
            net.register(_Echo("a"))

    def test_rpc_accounting(self):
        sim, net, a, b = self._net()
        ok, rtt, _ = net.rpc_issue("a", "b")
        assert ok and rtt == pytest.approx(0.10)
        assert net.stats.messages == 2
        b.go_offline()
        ok, rtt, _ = net.rpc_issue("a", "b")
        assert not ok
        assert net.stats.timeouts == 1
        assert rtt > 0.10  # timeouts cost more than a round trip

    def test_stats_reset(self):
        sim, net, a, b = self._net()
        net.rpc_issue("a", "b")
        assert net.stats.messages == 2 and net.stats.bytes > 0
        net.stats.reset()
        assert net.stats.messages == 0 and net.stats.bytes == 0
        net.rpc_issue("a", "b")  # the network keeps counting into the view
        assert net.stats.messages == 2

    def test_latency_models(self):
        import random
        rng = random.Random(0)
        uniform = UniformLatency()
        for _ in range(100):
            sample = uniform.sample(rng, "a", "b")
            assert LATENCY_LOW <= sample <= LATENCY_HIGH
        assert FixedLatency(0.3).sample(rng, "a", "b") == 0.3
