"""The self-healing store: quorum semantics, Byzantine holders, repair."""

import pytest

from repro.exceptions import (CryptoError, IntegrityError,
                              QuorumWriteError, ReplicaIntegrityError,
                              SimulationError, StorageError)
from repro.fabric import Fabric
from repro.faults import CorruptBlob, Equivocate, FaultPlan, StaleServe
from repro.storage2 import (AntiEntropyDaemon, ReadResult, ReplicatedStore,
                            ReplicationConfig, StoredVersion)
from repro.overlay.chord import ChordRing

PEERS = [f"p{i}" for i in range(10)]


def make_store(seed=7, plan=None, config=None, peers=PEERS):
    fabric = Fabric.create(seed=seed, faults=plan)
    ring = ChordRing(fabric, replication=3)
    for name in peers:
        ring.add_node(name)
    ring.build()
    store = ReplicatedStore(ring,
                            config or ReplicationConfig(n=3, r=2, w=2))
    return fabric, ring, store


def reader_for(ring, holders):
    """A ring member who is not a replica holder of the key."""
    return next(n for n in PEERS if n not in holders)


class TestConfigValidation:
    @pytest.mark.parametrize("bad", [
        dict(n=0, r=1, w=1),
        dict(r=0), dict(r=4),
        dict(w=0), dict(w=4),
        dict(n=4, r=2, w=2),                 # w + r <= n: no overlap
        dict(repair_interval=0.0), dict(repair_interval=-5.0),
        dict(repair_interval=float("nan")),
        dict(repair_interval=float("inf")),
    ])
    def test_invalid_parameters_rejected(self, bad):
        with pytest.raises(SimulationError):
            ReplicationConfig(**bad)


class TestQuorumWrites:
    def test_put_stores_on_n_holders_and_advances_versions(self):
        _, ring, store = make_store()
        store.put("p0", "k", b"v1")
        holders = store.placements["k"]
        assert len(holders) == 3
        for holder in holders:
            assert "k" in ring.nodes[holder].store
        record = store.put("p0", "k", b"v2")
        assert record.version == 2
        assert store.get("p0", "k").version == 2

    def test_write_quorum_failure_raises_and_keeps_chain_state(self):
        _, ring, store = make_store()
        holders = ring.replica_set("k")[:3]
        for holder in holders[1:]:
            ring.nodes[holder].go_offline()
        writer = reader_for(ring, holders)
        with pytest.raises(QuorumWriteError):
            store.put(writer, "k", b"v1")
        assert "k" not in store.placements
        for holder in holders[1:]:
            ring.nodes[holder].go_online()
        record = store.put(writer, "k", b"v1")
        assert record.version == 1  # the retry re-seals the same version


class TestVerifiedReads:
    def test_corrupting_holder_is_rejected_and_counted(self):
        holders = make_store()[1].replica_set("k")[:3]
        plan = FaultPlan(seed=7).add(CorruptBlob(holders={holders[0]}))
        fabric, ring, store = make_store(plan=plan)
        store.put("p0", "k", b"payload")
        result = store.get(reader_for(ring, holders), "k")
        assert result.payload == b"payload"
        assert result.rejected == 1
        assert result.verified == 2
        assert fabric.metrics.get_counter_value(
            "storage.byzantine_rejects") == 1

    @pytest.mark.parametrize("fault_cls", [StaleServe, Equivocate])
    def test_stale_replay_loses_to_newer_verified_version(self, fault_cls):
        holders = make_store()[1].replica_set("k")[:3]
        plan = FaultPlan(seed=7).add(fault_cls(holders={holders[0]}))
        _, ring, store = make_store(plan=plan)
        store.put("p0", "k", b"v1")
        store.put("p0", "k", b"v2")
        for _ in range(3):  # whatever old version is replayed, v2 wins
            result = store.get(reader_for(ring, holders), "k")
            assert result.payload == b"v2"
            assert result.version == 2

    def test_all_holders_byzantine_raises_replica_integrity_error(self):
        holders = make_store()[1].replica_set("k")[:3]
        plan = FaultPlan(seed=7).add(CorruptBlob(holders=set(holders)))
        _, ring, store = make_store(plan=plan)
        store.put("p0", "k", b"payload")
        with pytest.raises(ReplicaIntegrityError):
            store.get(reader_for(ring, holders), "k")

    def test_unreachable_holders_raise_storage_error(self):
        _, ring, store = make_store()
        store.put("p0", "k", b"payload")
        for holder in store.placements["k"]:
            ring.nodes[holder].go_offline()
        with pytest.raises(StorageError):
            store.get(reader_for(ring, store.placements["k"]), "k")

    def test_short_read_quorum_raises_storage_error(self):
        _, ring, store = make_store()
        store.put("p0", "k", b"payload")
        holders = store.placements["k"]
        for holder in holders[1:]:
            ring.nodes[holder].go_offline()
        with pytest.raises(StorageError, match="quorum"):
            store.get(reader_for(ring, holders), "k")

    def test_unknown_key_raises_storage_error(self):
        _, ring, store = make_store()
        with pytest.raises(StorageError):
            store.get("p0", "nope")

    def test_key_scoped_fault_leaves_other_keys_honest(self):
        """A liar scoped to one key serves co-located keys untouched."""
        holders = make_store()[1].replica_set("k")[:3]
        plan = FaultPlan(seed=7).add(
            CorruptBlob(holders={holders[0]}, keys={"other"}))
        fabric, ring, store = make_store(plan=plan)
        record = store.put("p0", "k", b"payload")
        assert store.serve(holders[0], "p9", "k") == record.encode()
        result = store.get(reader_for(ring, holders), "k")
        assert result.rejected == 0 and result.verified == 3

    def test_bare_read_accepts_what_quorum_rejects(self):
        """The E14 baseline: read_any trusts tampered first responses."""
        holders = make_store()[1].replica_set("k")[:3]
        plan = FaultPlan(seed=7).add(CorruptBlob(holders={holders[0]}))
        _, ring, store = make_store(plan=plan)
        record = store.put("p0", "k", b"payload")
        served = store.read_any(reader_for(ring, holders), "k")
        assert served != record.encode()  # garbled, yet returned


class TestReadRepair:
    def test_holder_that_missed_a_write_is_repaired_on_read(self):
        fabric, ring, store = make_store()
        store.put("p0", "k", b"v1")
        holders = store.placements["k"]
        laggard = holders[-1]
        ring.nodes[laggard].go_offline()
        store.put("p0", "k", b"v2")  # w=2 acks still reachable
        ring.nodes[laggard].go_online()
        result = store.get(reader_for(ring, holders), "k")
        assert result.version == 2
        assert result.repaired == 1
        assert fabric.metrics.get_counter_value("storage.read_repairs") == 1
        repaired = store._verify("k", ring.nodes[laggard].store["k"])
        assert repaired.version == 2


class TestAntiEntropy:
    def test_sync_round_pulls_missed_writes(self):
        fabric, ring, store = make_store()
        store.put("p0", "k", b"v1")
        holders = store.placements["k"]
        laggard = holders[-1]
        ring.nodes[laggard].go_offline()
        store.put("p0", "k", b"v2")
        ring.nodes[laggard].go_online()
        daemon = AntiEntropyDaemon(store, interval=60.0)
        daemon.run_round()
        assert store._verify("k", ring.nodes[laggard].store["k"]).version == 2
        assert fabric.metrics.get_counter_value("storage.repair_pulls") >= 1

    def test_re_replication_after_state_losing_crash(self):
        fabric, ring, store = make_store()
        store.put("p0", "k", b"v1")
        before = list(store.placements["k"])
        dead = before[0]
        ring.nodes[dead].crash(lose_state=True)
        daemon = AntiEntropyDaemon(store, interval=60.0)
        daemon.run_round()
        after = store.placements["k"]
        assert dead not in after
        assert len(after) == 3
        newcomer = next(h for h in after if h not in before)
        assert store._verify("k", ring.nodes[newcomer].store["k"]).version == 1
        assert fabric.metrics.get_counter_value(
            "storage.re_replications") >= 1

    def test_daemon_ticks_on_the_simulator_clock(self):
        fabric, ring, store = make_store()
        store.put("p0", "k", b"v1")
        daemon = AntiEntropyDaemon(store, interval=100.0)
        daemon.start()
        fabric.sim.run(until=350.0)
        assert daemon.rounds == 3
        assert fabric.metrics.get_counter_value("storage.repair_rounds") == 3

    def test_total_wipeout_is_honest_data_loss(self):
        """With every holder's state gone there is nothing to clone."""
        _, ring, store = make_store()
        store.put("p0", "k", b"v1")
        for holder in store.placements["k"]:
            ring.nodes[holder].crash(lose_state=True)
        AntiEntropyDaemon(store, interval=60.0).run_round()
        for holder in store.placements["k"]:
            node = ring.nodes.get(holder)
            assert node is None or "k" not in node.store


class TestDeterminism:
    def _run(self):
        holders = make_store()[1].replica_set("k")[:3]
        plan = (FaultPlan(seed=3)
                .add(StaleServe(holders={holders[0]}))
                .add(CorruptBlob(holders={holders[1]}, rate=0.5)))
        fabric, ring, store = make_store(plan=plan)
        store.put("p0", "k", b"v1")
        store.put("p0", "k", b"v2")
        daemon = AntiEntropyDaemon(store, interval=50.0)
        daemon.start()
        fabric.sim.run(until=120.0)
        reader = reader_for(ring, holders)
        outcomes = []
        for _ in range(5):
            result = store.get(reader, "k")
            outcomes.append((result.version, result.verified,
                             result.rejected, result.repaired))
        return (outcomes,
                fabric.metrics.get_counter_value("storage.byzantine_rejects"),
                fabric.network.stats.messages)

    def test_same_seed_same_byzantine_behaviour(self):
        assert self._run() == self._run()


class TestDegradedReads:
    """Graceful degradation: below-quorum reads serve verified-but-flagged."""

    CONFIG = ReplicationConfig(n=3, r=2, w=2, degraded_reads=True)

    def test_single_verified_copy_is_served_flagged(self):
        fabric, ring, store = make_store(config=self.CONFIG)
        store.put("p0", "k", b"payload")
        holders = store.placements["k"]
        for holder in holders[1:]:
            ring.nodes[holder].go_offline()
        result = store.get(reader_for(ring, holders), "k")
        assert result.degraded
        assert result.payload == b"payload"
        assert result.verified == 1 and result.repaired == 0
        assert fabric.metrics.get_counter_value(
            "storage.degraded_reads") == 1

    def test_full_quorum_reads_stay_unflagged(self):
        fabric, _, store = make_store(config=self.CONFIG)
        store.put("p0", "k", b"payload")
        result = store.get("p9", "k")
        assert not result.degraded
        assert fabric.metrics.get_counter_value(
            "storage.degraded_reads") == 0

    def test_degraded_never_returns_unverified_bytes(self):
        """The one reachable holder is a corrupter: raise, don't serve."""
        holders = make_store()[1].replica_set("k")[:3]
        plan = FaultPlan(seed=7).add(CorruptBlob(holders={holders[0]}))
        _, ring, store = make_store(plan=plan, config=self.CONFIG)
        store.put("p0", "k", b"payload")
        for holder in store.placements["k"]:
            if holder != holders[0]:
                ring.nodes[holder].go_offline()
        with pytest.raises(ReplicaIntegrityError):
            store.get(reader_for(ring, store.placements["k"]), "k")

    def test_newest_verified_copy_wins_the_degraded_read(self):
        fabric, ring, store = make_store(config=self.CONFIG)
        store.put("p0", "k", b"v1")
        holders = store.placements["k"]
        laggard = holders[-1]
        ring.nodes[laggard].go_offline()
        store.put("p0", "k", b"v2")
        # only holders that saw v2 go away; the laggard returns with v1
        for holder in holders[:-1]:
            ring.nodes[holder].go_offline()
        ring.nodes[laggard].go_online()
        result = store.get(reader_for(ring, holders), "k")
        assert result.degraded
        assert result.version == 1  # stale is possible — and flagged
        assert result.payload == b"v1"

    def test_flag_off_keeps_the_legacy_failure(self):
        _, ring, store = make_store()
        store.put("p0", "k", b"payload")
        holders = store.placements["k"]
        for holder in holders[1:]:
            ring.nodes[holder].go_offline()
        with pytest.raises(StorageError, match="quorum"):
            store.get(reader_for(ring, holders), "k")


KEYS = [f"k{i}" for i in range(6)]
#: two liars over a 10-peer ring: keys with 0, 1 and 2 of them as holders
FAULTS = [StaleServe, Equivocate, CorruptBlob]


def _verify_every_response(store):
    """The read path before the per-read memo: one check per response."""

    def verify(key, blob, seen):
        try:
            return store._verify(key, blob)
        except (IntegrityError, CryptoError) as exc:
            return exc

    store._verify_once = verify


def _outcome(value):
    if isinstance(value, Exception):
        return type(value).__name__, str(value)
    return value


class TestOneCheckPerDistinctBlob:
    """A quorum read decodes and verifies each distinct served blob once;
    every response still counts, rejects and repairs on its own."""

    def _scenario(self, fault_cls, memo=True, begin_read=lambda: None):
        plan = FaultPlan(seed=5).add(fault_cls(holders={"p1", "p4"}))
        fabric, ring, store = make_store(plan=plan)
        if not memo:
            _verify_every_response(store)
        laggard = store.holders_of(KEYS[0])[-1]
        for version in (1, 2, 3):
            if version == 3:
                ring.nodes[laggard].go_offline()  # misses v3: read-repair
            for key in KEYS:
                store.put("p0", key, f"{key} v{version}".encode())
            ring.nodes[laggard].go_online()
        outcomes = []
        for reader in ("p2", "p7"):
            for key in KEYS:
                begin_read()
                try:
                    outcomes.append(_outcome(store.get(reader, key)))
                except StorageError as exc:
                    outcomes.append(_outcome(exc))
            begin_read()
            batch = store.get_many(reader, KEYS + KEYS[:2])
            outcomes.append({k: _outcome(v) for k, v in batch.items()})
        return (outcomes,
                fabric.metrics.get_counter_value("storage.byzantine_rejects"),
                fabric.metrics.get_counter_value("storage.read_repairs"),
                fabric.network.stats.messages)

    @pytest.mark.parametrize("fault_cls", FAULTS)
    def test_reads_equal_a_loop_that_verifies_every_response(self,
                                                             fault_cls):
        memo = self._scenario(fault_cls)
        every = self._scenario(fault_cls, memo=False)
        assert memo == every
        outcomes, rejects, repairs, _ = memo
        assert repairs > 0
        # garbled copies are rejected; replays verify and lose on version
        assert (rejects > 0) == (fault_cls is CorruptBlob)
        assert any(isinstance(o, ReadResult) and o.rejected
                   for o in outcomes) == (fault_cls is CorruptBlob)

    @pytest.mark.parametrize("fault_cls", FAULTS)
    def test_stored_version_verify_runs_once_per_distinct_blob(
            self, fault_cls, monkeypatch):
        reads = []
        served, verify = ReplicatedStore.serve, StoredVersion.verify

        def spy_serve(store, holder, reader, key):
            blob = served(store, holder, reader, key)
            if reads:
                reads[-1]["served"].append((key, blob))
            return blob

        def spy_verify(record, verify_key):
            if reads:
                reads[-1]["verified"] += 1
            return verify(record, verify_key)

        monkeypatch.setattr(ReplicatedStore, "serve", spy_serve)
        monkeypatch.setattr(StoredVersion, "verify", spy_verify)
        self._scenario(fault_cls, begin_read=lambda: reads.append(
            {"served": [], "verified": 0}))
        deduped = contested = 0
        for read in reads:
            distinct = set(read["served"])
            contested += len({key for key, _ in distinct}) < len(distinct)
            decodable = 0
            for key, blob in distinct:
                try:
                    decodable += StoredVersion.decode(blob).key == key
                except IntegrityError:
                    pass
            assert read["verified"] == decodable
            deduped += len(read["served"]) - len(distinct)
        assert deduped > 0      # byte-identical copies shared one check
        assert contested > 0    # and the liars did serve other bytes
