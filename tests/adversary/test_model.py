"""Behavioral tests for the adversary model, quarantine feeds, and walks.

* compromise selection is a pure hash of ``(seed_salt, name)`` — stable
  across fabrics, roster orders, and runs, movable only via the salt;
* attacks leave an audit trail (NetworkStats misrouted/forged_routes
  plus ``adversary.*`` metrics);
* a quarantine ban propagates to SWIM membership (sorts last, stays
  alive) and to the circuit breaker (force-open, half-open recoverable);
* the extracted walk engine replays the exact draw order of the old
  inline loop in ``extensions/sybil.py``.
"""

from __future__ import annotations

import random as _random

import networkx as nx
import pytest

from repro.adversary import AdversaryConfig, AdversaryModel, DefenseConfig
from repro.adversary.walks import random_walk_landings, region_mass
from repro.exceptions import LookupError_, SimulationError, StorageError
from repro.fabric import Fabric
from repro.faults import CircuitBreaker
from repro.faults.resilience import BREAKER_COOLDOWN
from repro.membership import SwimMembership
from repro.overlay.chord import ChordRing

N = 24
SEED = 5


def _names():
    return [f"p{i}" for i in range(N)]


def _compromised_set(config):
    fab = Fabric.create(seed=SEED, adversary=config)
    return {n for n in _names() if fab.adversary.compromised(n)}


class TestSelection:
    def test_deterministic_across_fabrics_and_seeds(self):
        config = AdversaryConfig(fraction=0.3, defense=None)
        first = _compromised_set(config)
        # A different simulator seed must not move the compromise set —
        # selection depends only on (seed_salt, name).
        other = Fabric.create(seed=SEED + 99, adversary=config)
        assert first == {n for n in _names()
                         if other.adversary.compromised(n)}
        assert 0 < len(first) < N

    def test_salt_moves_the_set(self):
        base = _compromised_set(AdversaryConfig(fraction=0.3, defense=None))
        salted = _compromised_set(
            AdversaryConfig(fraction=0.3, seed_salt=7, defense=None))
        assert base != salted

    def test_explicit_set_overrides_threshold(self):
        config = AdversaryConfig(fraction=0.9,
                                 compromised=frozenset({"p1", "p2"}),
                                 defense=None)
        assert _compromised_set(config) == {"p1", "p2"}

    def test_fraction_monotone(self):
        small = _compromised_set(AdversaryConfig(fraction=0.1, defense=None))
        large = _compromised_set(AdversaryConfig(fraction=0.4, defense=None))
        # The hash threshold nests: raising the fraction only adds peers.
        assert small <= large


class TestAttachOrder:
    """The overlays enroll a peer as it is added and pick their lookup
    driver when built, so the model must attach before any peer exists."""

    def test_a_model_attached_after_peers_register_is_refused(self):
        fab = Fabric.create(seed=SEED)
        ring = ChordRing(fab)
        for name in _names():
            ring.add_node(name)
        # attached now, it would know no accomplice: every misroute would
        # degrade to a self-eclipse and none would be counted
        with pytest.raises(SimulationError, match="before peers register"):
            AdversaryModel(fab, AdversaryConfig(fraction=0.3))
        assert fab.adversary is None

    def test_attached_in_create_it_enrolls_every_peer(self):
        fab = Fabric.create(seed=SEED,
                            adversary=AdversaryConfig(fraction=0.3))
        ring = ChordRing(fab)
        for name in _names():
            ring.add_node(name)
        assert fab.adversary.rosters["chord"] == _names()
        assert fab.adversary.accomplices("chord")


class TestAuditTrail:
    def test_attacks_are_counted(self):
        config = AdversaryConfig(fraction=0.3, defense=None)
        fab = Fabric.create(seed=SEED, adversary=config)
        ring = ChordRing(fab, replication=2)
        for name in _names():
            ring.add_node(name)
        ring.build()
        for j in range(20):
            try:
                ring.lookup(f"p{j % N}", f"key{j}")
            except (LookupError_, StorageError):
                pass
        summary = fab.network.stats.summary()
        assert summary["misrouted"] + summary["forged_routes"] > 0
        assert summary["misrouted"] == fab.network.stats.misrouted
        assert summary["forged_routes"] == fab.network.stats.forged_routes


class TestQuarantineFeeds:
    def _world(self):
        fab = Fabric.create(
            seed=SEED, resilient=True,
            breaker=CircuitBreaker(),
            adversary=AdversaryConfig(fraction=0.2,
                                      defense=DefenseConfig()))
        swim = SwimMembership(fab)
        for name in _names():
            swim.register(name)
        return fab, swim

    def test_ban_reaches_breaker_and_recovers(self):
        fab, swim = self._world()
        breaker = fab.channel.breaker
        now = fab.sim.now
        fab.adversary.quarantine.flag_provable("p3", "cert")
        assert breaker.state("p3", now) == "open"
        # After the cooldown the breaker half-opens: one probe, and a
        # success closes it again — quarantine is recoverable.
        later = now + BREAKER_COOLDOWN + 1.0
        assert breaker.state("p3", later) == "half_open"
        assert breaker.allow("p3", later)
        breaker.record_success("p3")
        assert breaker.state("p3", later) == "closed"

    def test_suspects_ban_after_threshold(self):
        fab, _ = self._world()
        quarantine = fab.adversary.quarantine
        quarantine.flag_suspect("p5")
        assert "p5" not in quarantine.banned
        quarantine.flag_suspect("p5")
        assert "p5" in quarantine.banned
        assert quarantine.reasons["p5"] == "outvoted"

    def test_order_last_keeps_banned_reachable(self):
        fab, _ = self._world()
        quarantine = fab.adversary.quarantine
        quarantine.flag_provable("p2", "cert")
        assert quarantine.order_last(["p2", "p9"]) == ["p9", "p2"]
        # Banned peers are reordered, never dropped: they may still be
        # a key's true owner or the only live holder.
        assert set(quarantine.order_last(["p2"])) == {"p2"}


class TestWalkEngine:
    def test_draw_order_matches_inline_loop(self):
        graph = nx.barbell_graph(8, 2)
        graph = nx.relabel_nodes(
            graph, {n: f"u{n}" for n in graph.nodes})
        total_walks, walk_length = 40, 6

        engine = random_walk_landings(graph, "u0", total_walks,
                                      walk_length, _random.Random(3))
        rng = _random.Random(3)
        inline = {node: 0 for node in graph.nodes}
        for _ in range(total_walks):
            node = "u0"
            for _ in range(walk_length):
                neighbors = list(graph.neighbors(node))
                if not neighbors:
                    break
                node = rng.choice(neighbors)
            inline[node] += 1
        assert engine == inline

    def test_region_mass_partitions(self):
        graph = nx.path_graph(6)
        graph = nx.relabel_nodes(
            graph, {n: f"u{n}" for n in graph.nodes})
        landings = random_walk_landings(graph, "u0", 25, 4,
                                        _random.Random(1))
        left = region_mass(landings, {"u0", "u1", "u2"}, 25)
        right = region_mass(landings, {"u3", "u4", "u5"}, 25)
        assert left + right == 1.0
