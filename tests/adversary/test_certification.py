"""Contract tests for node-id certification across the overlays.

The certificate defense promises exactly two rejections and one
acceptance:

* a **chosen id** (picked adjacent to a victim key) is rejected — no
  identity material the adversary holds hashes to it;
* an **unverifiable certificate** (tampered id, material, or signature)
  is rejected wholesale;
* a **certified-but-lying** peer (true id, malicious answer) passes the
  certificate check and must instead be out-voted by disjoint paths.

The first two are checked against every overlay family that enrolls
peers (Chord, Kademlia, and the Hybrid overlay's embedded ring); the
third drives real defended lookups and asserts the vote wins.
"""

from __future__ import annotations

import networkx as nx
import pytest

from repro.adversary import AdversaryConfig, DefenseConfig
from repro.crypto.node_cert import (IdCertifier, NodeIdCertificate,
                                    derive_node_id)
from repro.fabric import Fabric
from repro.overlay.chord import ChordRing, chord_id
from repro.overlay.hybrid import HybridOverlay
from repro.overlay.kademlia import KademliaOverlay, kad_id, xor_distance

N = 24
SEED = 11

DEFENDED = AdversaryConfig(fraction=0.2, defense=DefenseConfig())


def _names():
    return [f"p{i}" for i in range(N)]


def _chord_world():
    fab = Fabric.create(seed=SEED, adversary=DEFENDED)
    ring = ChordRing(fab, replication=2)
    for name in _names():
        ring.add_node(name)
    ring.build()
    return fab, "chord", {name: chord_id(name) for name in _names()}


def _kad_world():
    fab = Fabric.create(seed=SEED, adversary=DEFENDED)
    overlay = KademliaOverlay(fab)
    for name in _names():
        overlay.add_node(name)
    overlay.bootstrap()
    return fab, "kad", {name: kad_id(name) for name in _names()}


def _hybrid_world():
    fab = Fabric.create(seed=SEED, adversary=DEFENDED)
    graph = nx.cycle_graph(N)
    graph = nx.relabel_nodes(graph, {i: f"p{i}" for i in range(N)})
    HybridOverlay(fab, graph)  # enrolls its embedded ring's peers
    return fab, "chord", {name: chord_id(name) for name in _names()}


WORLDS = {"chord": _chord_world, "kademlia": _kad_world,
          "hybrid": _hybrid_world}


@pytest.mark.parametrize("family", sorted(WORLDS))
class TestCertifiedClaims:
    def test_true_positions_pass(self, family):
        fab, space, positions = WORLDS[family]()
        adv = fab.adversary
        for name, position in positions.items():
            assert adv.certified_id(space, name) == position
            assert adv.check_claim(space, name, position)

    def test_chosen_ids_rejected(self, family):
        """An id picked next to a victim key fails the claim check."""
        fab, space, positions = WORLDS[family]()
        adv = fab.adversary
        for name, position in positions.items():
            forged = adv._forged_id(space, "victim-key")
            if forged == position:  # astronomically unlikely collision
                forged = (forged + 1) % (1 << 64)
            assert not adv.check_claim(space, name, forged)


class TestUnverifiableCertificates:
    def test_tampered_id_fails(self):
        certifier = IdCertifier(bits=64)
        cert = certifier.certificate("alice")
        forged = NodeIdCertificate(
            name=cert.name, public_key=cert.public_key,
            material=cert.material,
            node_id=(cert.node_id + 1) % (1 << 64),
            bits=cert.bits, signature=cert.signature)
        assert cert.verify()
        assert not forged.verify()

    def test_tampered_material_fails(self):
        """Material for a chosen id breaks the hash binding."""
        certifier = IdCertifier(bits=64)
        cert = certifier.certificate("alice")
        forged = NodeIdCertificate(
            name=cert.name, public_key=cert.public_key,
            material=cert.material + b"x",
            node_id=cert.node_id, bits=cert.bits,
            signature=cert.signature)
        assert not forged.verify()

    def test_foreign_signature_fails(self):
        """A signature minted by a different keypair never verifies."""
        certifier = IdCertifier(bits=64)
        cert = certifier.certificate("alice")
        other = certifier.certificate("mallory")
        material = b"chosen material"
        forged = NodeIdCertificate(
            name=cert.name, public_key=other.public_key,
            material=material,
            node_id=derive_node_id(material, 64),
            bits=64, signature=other.signature)
        assert not forged.verify()


class TestLiarsAreOutvoted:
    """Certified-but-lying forged answers lose the disjoint-path vote."""

    def test_chord_defended_lookups_all_correct(self):
        config = AdversaryConfig(fraction=0.25,
                                 behaviors=("eclipse",),
                                 defense=DefenseConfig())
        fab = Fabric.create(seed=SEED, adversary=config)
        ring = ChordRing(fab, successor_list_size=4, replication=2)
        for name in _names():
            ring.add_node(name)
        ring.build()
        adv = fab.adversary
        honest = [n for n in _names() if not adv.compromised(n)]
        assert any(adv.compromised(n) for n in _names())
        wrong = 0
        for j in range(30):
            key = f"key{j}"
            res = ring.lookup(honest[j % len(honest)], key)
            if res.owner != ring.owner_of(key):
                wrong += 1
        assert wrong == 0
        # The defense actually met the adversary: every defended lookup
        # either settled unanimously or out-voted a liar.
        agreed = fab.metrics.counter("lookup.disjoint_agreement",
                                     overlay="chord").value
        poisoned = fab.metrics.counter("lookup.poisoned", overlay="chord",
                                       cause="outvoted").value
        assert agreed + poisoned >= 30
        assert poisoned > 0

    def test_kad_defended_lookups_all_correct(self):
        config = AdversaryConfig(fraction=0.25,
                                 behaviors=("eclipse",),
                                 defense=DefenseConfig())
        fab = Fabric.create(seed=SEED, adversary=config)
        overlay = KademliaOverlay(fab)
        for name in _names():
            overlay.add_node(name)
        overlay.bootstrap()
        adv = fab.adversary
        honest = [n for n in _names() if not adv.compromised(n)]
        wrong = 0
        for j in range(30):
            key = f"key{j}"
            truth = min(_names(), key=lambda n: xor_distance(
                kad_id(n), kad_id(key)))
            res = overlay.lookup(honest[j % len(honest)], key)
            if not res.closest or res.closest[0] != truth:
                wrong += 1
        assert wrong == 0
