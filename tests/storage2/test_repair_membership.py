"""The anti-entropy daemon on the non-oracle (membership) liveness path."""

import pytest

from repro.fabric import Fabric
from repro.membership import SwimMembership
from repro.overlay.chord import ChordRing
from repro.overlay.simulator import FixedLatency
from repro.storage2 import (AntiEntropyDaemon, ReplicatedStore,
                            ReplicationConfig)

PEERS = [f"p{i}" for i in range(10)]


def make(seed=7, interval=500.0, start_membership=True):
    fabric = Fabric.create(seed=seed, latency=FixedLatency(0.02))
    membership = SwimMembership(fabric)
    ring = ChordRing(fabric, replication=3)
    for name in PEERS:
        ring.add_node(name)
        membership.register(name)
    ring.build()
    store = ReplicatedStore(ring, ReplicationConfig(n=3, r=2, w=2))
    daemon = AntiEntropyDaemon(store, interval=interval)
    if start_membership:
        membership.start()
        daemon.start()
    return fabric, ring, store, membership, daemon


class TestLivenessSource:
    def test_daemon_discovers_membership_from_the_fabric(self):
        _, _, _, membership, daemon = make(start_membership=False)
        assert daemon.membership is membership

    def test_explicit_none_keeps_the_oracle(self):
        fabric = Fabric.create(seed=1)
        ring = ChordRing(fabric, replication=3)
        for name in PEERS:
            ring.add_node(name)
        ring.build()
        store = ReplicatedStore(ring, ReplicationConfig(n=3, r=2, w=2))
        assert AntiEntropyDaemon(store, interval=60.0).membership is None

    def test_offline_but_unconfirmed_holder_is_still_trusted(self):
        """No oracle peeking: repair waits for a *confirmed* death."""
        fabric, ring, store, membership, daemon = make(
            start_membership=False)
        store.put("p0", "k", b"v1")
        before = list(store.placements["k"])
        ring.nodes[before[0]].go_offline()
        daemon.run_round()  # the detector has confirmed nothing yet
        assert store.placements["k"] == before
        assert fabric.metrics.get_counter_value(
            "storage.re_replications") == 0


class TestConfirmTriggeredRepair:
    def _crash_and_confirm(self):
        fabric, ring, store, membership, daemon = make()
        store.put("p0", "k", b"v1")
        store.put("p0", "k", b"v2")
        fabric.sim.run(until=60.0)
        victim = store.placements["k"][0]
        ring.nodes[victim].crash(lose_state=True)
        fabric.sim.run(until=600.0)
        return fabric, ring, store, membership, victim

    def test_confirmed_death_repairs_without_waiting_for_the_tick(self):
        fabric, ring, store, membership, victim = self._crash_and_confirm()
        assert membership.confirmed_dead(victim)
        assert fabric.metrics.get_counter_value(
            "storage.confirm_triggered_repairs") >= 1
        assert victim not in store.placements["k"]
        assert len(store.placements["k"]) == 3
        for holder in store.placements["k"]:
            record = store._verify("k", ring.nodes[holder].store["k"])
            assert record.version == 2

    def test_repaired_key_reads_at_full_quorum(self):
        _, ring, store, _, victim = self._crash_and_confirm()
        reader = next(p for p in PEERS if p not in store.placements["k"])
        result = store.get(reader, "k")
        assert result.version == 2 and result.verified >= 2

    def test_sync_still_pulls_for_laggards_in_membership_mode(self):
        fabric, ring, store, membership, daemon = make(interval=100.0)
        store.put("p0", "k", b"v1")
        holders = store.placements["k"]
        laggard = holders[-1]
        ring.nodes[laggard].go_offline()
        store.put("p0", "k", b"v2")
        ring.nodes[laggard].go_online()
        fabric.sim.run(until=150.0)  # one daemon round
        assert store._verify(
            "k", ring.nodes[laggard].store["k"]).version == 2
        assert fabric.metrics.get_counter_value(
            "storage.repair_pulls") >= 1


class TestDeterminism:
    def _run(self):
        fabric, ring, store, membership, _ = make(seed=13, interval=120.0)
        for i in range(6):
            store.put("p0", f"k{i}", b"v")
        fabric.sim.run(until=60.0)
        ring.nodes[store.placements["k0"][0]].crash(lose_state=True)
        fabric.sim.run(until=700.0)
        return (sorted((k, tuple(h)) for k, h in store.placements.items()),
                repr(membership.confirm_log),
                fabric.network.stats.messages,
                fabric.metrics.get_counter_value("storage.re_replications"))

    def test_membership_mode_repair_is_deterministic(self):
        assert self._run() == self._run()
