"""Tests for churn models and replica placement/availability."""

import random

import networkx as nx
import pytest

from repro.exceptions import OverlayError, SimulationError
from repro.overlay import replication as rep
from repro.overlay.churn import (DiurnalChurn, ExponentialOnOff,
                                 apply_churn_to_network)
from repro.overlay.network import SimNetwork, SimNode
from repro.overlay.simulator import Simulator

PEERS = [f"peer{i}" for i in range(40)]


class TestChurnModels:
    def test_exponential_deterministic(self):
        m1 = ExponentialOnOff(seed=5)
        m2 = ExponentialOnOff(seed=5)
        for t in (0.0, 3600.0, 100000.0):
            assert m1.online_at("peer1", t) == m2.online_at("peer1", t)

    def test_exponential_uptime_matches_schedule(self):
        model = ExponentialOnOff(seed=6)
        for peer in PEERS[:5]:
            fraction = model.uptime_fraction(peer)
            assert 0.0 <= fraction <= 1.0
            # empirical check: sample 200 instants
            hits = sum(model.online_at(peer, t)
                       for t in range(0, int(model.horizon),
                                      int(model.horizon) // 200))
            assert abs(hits / 200 - fraction) < 0.15

    def test_exponential_sessions_alternate(self):
        model = ExponentialOnOff(seed=7)
        sessions = model.schedule("peerX")
        for (s1, e1), (s2, e2) in zip(sessions, sessions[1:]):
            assert e1 <= s2  # no overlap

    def test_exponential_out_of_horizon(self):
        model = ExponentialOnOff(seed=1)
        with pytest.raises(SimulationError):
            model.online_at("p", model.horizon + 1)

    def test_exponential_heterogeneity(self):
        model = ExponentialOnOff(seed=8, spread=8.0)
        fractions = [model.uptime_fraction(p) for p in PEERS]
        assert max(fractions) - min(fractions) > 0.2

    def test_diurnal_probability_range(self):
        model = DiurnalChurn(seed=9)
        for hour in range(24):
            p = model.online_probability("peer1", hour * 3600.0)
            assert 0.01 <= p <= 0.99

    def test_diurnal_day_night_swing(self):
        model = DiurnalChurn(seed=10, phase_correlation=1.0)
        probabilities = [model.online_probability("p", h * 3600.0)
                         for h in range(24)]
        assert max(probabilities) - min(probabilities) > 0.4

    def test_diurnal_deterministic(self):
        m = DiurnalChurn(seed=11)
        assert m.online_at("p", 7200.0) == m.online_at("p", 7200.0)

    def test_apply_churn_to_network(self):
        net = SimNetwork(Simulator(0))
        for name in PEERS[:10]:
            net.register(SimNode(name))
        model = ExponentialOnOff(seed=12)
        online = apply_churn_to_network(net, model, 50000.0)
        assert online == sum(1 for n in net.nodes.values() if n.online)


class TestPlacement:
    def test_random_placement(self, rng):
        placement = rep.place_random("peer0", PEERS, 5, rng)
        assert len(placement.replicas) == 5
        assert "peer0" not in placement.replicas
        assert len(set(placement.replicas)) == 5

    def test_random_placement_overflow(self, rng):
        with pytest.raises(OverlayError):
            rep.place_random("peer0", PEERS[:3], 5, rng)

    def test_friend_placement_prefers_friends(self, rng):
        graph = nx.Graph()
        graph.add_edges_from([("peer0", f"peer{i}") for i in (1, 2, 3, 4)])
        placement = rep.place_friends("peer0", graph, 3, rng)
        assert set(placement.replicas) <= {"peer1", "peer2", "peer3",
                                           "peer4"}

    def test_friend_placement_falls_back_to_foaf(self, rng):
        graph = nx.Graph()
        graph.add_edge("peer0", "peer1")
        graph.add_edge("peer1", "peer2")
        graph.add_edge("peer1", "peer3")
        placement = rep.place_friends("peer0", graph, 3, rng)
        assert "peer1" in placement.replicas
        assert set(placement.replicas) <= {"peer1", "peer2", "peer3"}

    def test_friend_placement_insufficient(self, rng):
        graph = nx.Graph()
        graph.add_edge("peer0", "peer1")
        with pytest.raises(OverlayError):
            rep.place_friends("peer0", graph, 5, rng)

    def test_uptime_placement_picks_best(self):
        uptimes = {p: i / len(PEERS) for i, p in enumerate(PEERS)}
        placement = rep.place_by_uptime("peer0", PEERS, 3,
                                        lambda p: uptimes[p])
        assert placement.replicas == ["peer39", "peer38", "peer37"]


class TestAvailability:
    TIMES = [float(t) for t in range(3600, 500000, 9600)]

    def test_more_replicas_more_availability(self, rng):
        model = ExponentialOnOff(seed=13)
        availabilities = []
        for count in (0, 2, 5):
            placement = rep.Placement(owner="peer0",
                                      replicas=PEERS[1:1 + count])
            availabilities.append(
                rep.measure_availability(placement, model, self.TIMES))
        assert availabilities[0] <= availabilities[1] <= availabilities[2]

    def test_uptime_placement_beats_random(self, rng):
        model = ExponentialOnOff(seed=14, spread=8.0)
        random_place = rep.place_random("peer0", PEERS, 3, rng)
        best_place = rep.place_by_uptime("peer0", PEERS, 3,
                                         model.uptime_fraction)
        assert rep.measure_availability(best_place, model, self.TIMES) >= \
            rep.measure_availability(random_place, model, self.TIMES)

    def test_analytic_close_to_measured_for_independent_churn(self, rng):
        model = ExponentialOnOff(seed=15)
        placement = rep.place_random("peer0", PEERS, 3, rng)
        measured = rep.measure_availability(placement, model, self.TIMES)
        analytic = rep.analytic_availability(placement, model)
        assert abs(measured - analytic) < 0.12

    def test_correlated_churn_hurts(self):
        """Fully phase-correlated diurnal churn: replicas sleep together,
        so availability drops below the independence prediction."""
        correlated = DiurnalChurn(seed=16, phase_correlation=1.0)
        placement = rep.Placement(owner="peer0", replicas=PEERS[1:4])
        measured = rep.measure_availability(placement, correlated,
                                            self.TIMES)
        analytic = rep.analytic_availability(placement, correlated)
        assert measured < analytic + 0.02

    def test_empty_probes_rejected(self):
        placement = rep.Placement(owner="a", replicas=[])
        with pytest.raises(OverlayError):
            rep.measure_availability(placement, ExponentialOnOff(), [])


class TestReplicaExposure:
    def test_plaintext_replicas_see_owners(self, rng):
        exposure = rep.ReplicaExposure()
        p1 = rep.Placement(owner="alice", replicas=["bob", "carol"])
        p2 = rep.Placement(owner="dave", replicas=["bob"])
        exposure.record(p1, encrypted=False)
        exposure.record(p2, encrypted=False)
        assert exposure.max_readable_view(4) == 0.5  # bob reads 2/4 users
        assert exposure.stored_objects["bob"] == 2

    def test_encryption_zeroes_readable_view(self, rng):
        exposure = rep.ReplicaExposure()
        exposure.record(rep.Placement(owner="alice",
                                      replicas=["bob"]), encrypted=True)
        assert exposure.max_readable_view(10) == 0.0
        assert exposure.stored_objects["bob"] == 1

    def test_mean_view(self):
        exposure = rep.ReplicaExposure()
        exposure.record(rep.Placement(owner="a", replicas=["x", "y"]),
                        encrypted=False)
        exposure.record(rep.Placement(owner="b", replicas=["x"]),
                        encrypted=False)
        assert exposure.mean_readable_view(4) == pytest.approx(
            (2 / 4 + 1 / 4) / 2)

    def test_empty_exposure(self):
        exposure = rep.ReplicaExposure()
        assert exposure.max_readable_view(10) == 0.0
        assert exposure.mean_readable_view(10) == 0.0
