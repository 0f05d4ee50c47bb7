"""The StorageBackend contract, enforced across all four architectures.

Every backend behind :class:`~repro.dosn.api.DosnNetwork` must satisfy the
same interface semantics — roundtripping blobs, failing on unknown ids
with the repo's storage exception family, and reporting observer views
consistent with what was actually stored — or the E8 exposure comparison
stops being apples-to-apples.

The contract suite runs every read assertion through **both** read
entry points — the single read with provenance
(:meth:`StorageBackend.fetch_blob`, its bytes alone and its
:class:`FetchedBlob`) and the batched :meth:`StorageBackend.get_many` — so
the per-holder coalescing overrides cannot drift from the sequential
semantics.
"""

import pytest

from repro.dosn.provider import CentralProvider
from repro.dosn.storage import (CentralBackend, DHTBackend, FederationBackend,
                                FetchedBlob, LocalBackend)
from repro.exceptions import LookupError_, ReproError, StorageError
from repro.fabric import Fabric
from repro.overlay.chord import ChordRing
from repro.overlay.federation import FederatedNetwork
from repro.storage2 import ReplicatedStore, ReplicationConfig

USERS = ["alice", "bob", "carol"]


def _central():
    return CentralBackend(CentralProvider())


def _dht():
    fabric = Fabric.create(seed=7)
    ring = ChordRing(fabric, replication=2)
    for name in USERS:
        ring.add_node(name)
    ring.build()
    return DHTBackend(ring)


def _dht_quorum():
    fabric = Fabric.create(seed=7)
    ring = ChordRing(fabric, replication=3)
    for name in USERS:
        ring.add_node(name)
    ring.build()
    quorum = ReplicatedStore(ring, ReplicationConfig(n=3, r=2, w=2))
    return DHTBackend(ring, quorum=quorum)


def _federation():
    fabric = Fabric.create(seed=7)
    federation = FederatedNetwork(fabric.network, ["pod0", "pod1"])
    for name in USERS:
        federation.register_user(name)
    return FederationBackend(federation)


def _local():
    return LocalBackend()


BACKENDS = {
    "central": _central,
    "dht": _dht,
    "dht_quorum": _dht_quorum,
    "federation": _federation,
    "local": _local,
}


def _read_single(backend, reader, cid):
    return backend.fetch_blob(reader, cid).blob


def _read_blob(backend, reader, cid):
    fetched = backend.fetch_blob(reader, cid)
    assert isinstance(fetched, FetchedBlob)
    return fetched.blob


def _read_batched(backend, reader, cid):
    got = backend.get_many(reader, [cid])[cid]
    if isinstance(got, Exception):
        raise got
    assert isinstance(got, FetchedBlob)
    return got.blob


#: Every read entry point must satisfy the same contract.
READ_PATHS = {"single": _read_single, "provenance": _read_blob,
              "batched": _read_batched}


@pytest.fixture(params=sorted(BACKENDS))
def backend(request):
    return BACKENDS[request.param]()


@pytest.fixture(params=sorted(READ_PATHS))
def read(request):
    return READ_PATHS[request.param]


class TestStorageBackendContract:
    def test_put_get_roundtrip(self, backend, read):
        backend.put("alice", "cid-1", b"hello", recipients=["bob"])
        assert read(backend, "bob", "cid-1") == b"hello"

    def test_reader_can_be_the_author(self, backend, read):
        backend.put("alice", "cid-2", b"mine", recipients=[])
        assert read(backend, "alice", "cid-2") == b"mine"

    def test_unknown_cid_raises_storage_family(self, backend, read):
        with pytest.raises(ReproError):
            read(backend, "alice", "no-such-cid")

    def test_observer_views_cover_stored_content(self, backend):
        backend.put("alice", "cid-4", b"blob", recipients=["bob", "carol"])
        views = backend.observer_views()
        assert views, "at least one observer must report a view"
        stored_anywhere = set().union(*views.values())
        assert "cid-4" in stored_anywhere

    def test_observer_views_no_phantom_ids(self, backend):
        backend.put("alice", "cid-5", b"blob", recipients=["bob"])
        for stored in backend.observer_views().values():
            assert stored <= {"cid-5"}

    def test_overwrite_returns_newest_version(self, backend, read):
        """Two puts under one cid: every reader sees the second payload."""
        backend.put("alice", "cid-v", b"version-1", recipients=["bob"])
        backend.put("alice", "cid-v", b"version-2", recipients=["bob"])
        for reader in USERS:
            assert read(backend, reader, "cid-v") == b"version-2"

    def test_overwrite_is_repeatable(self, backend, read):
        """Overwriting N times always lands on the last payload."""
        for i in range(4):
            backend.put("alice", "cid-w", f"rev-{i}".encode(),
                        recipients=["bob"])
        assert read(backend, "bob", "cid-w") == b"rev-3"


class TestBatchedReads:
    """get_many-specific semantics beyond single-read parity."""

    @pytest.mark.parametrize("name", sorted(BACKENDS))
    def test_batch_matches_sequential(self, name):
        backend = BACKENDS[name]()
        cids = [f"cid-{i}" for i in range(6)]
        for i, cid in enumerate(cids):
            backend.put("alice", cid, f"payload-{i}".encode(),
                        recipients=["bob"])
        got = backend.get_many("bob", cids)
        assert set(got) == set(cids)
        for cid in cids:
            assert got[cid].blob == backend.fetch_blob("bob", cid).blob

    @pytest.mark.parametrize("name", sorted(BACKENDS))
    def test_failures_are_values_not_raises(self, name):
        """One missing cid must not fail the rest of the batch."""
        backend = BACKENDS[name]()
        backend.put("alice", "cid-ok", b"fine", recipients=["bob"])
        got = backend.get_many("bob", ["cid-ok", "cid-ghost"])
        assert got["cid-ok"].blob == b"fine"
        assert isinstance(got["cid-ghost"], ReproError)
        assert all(isinstance(value, (FetchedBlob, ReproError))
                   for value in got.values())

    @pytest.mark.parametrize("name", sorted(BACKENDS))
    def test_duplicate_cids_collapse(self, name):
        backend = BACKENDS[name]()
        backend.put("alice", "cid-d", b"once", recipients=["bob"])
        got = backend.get_many("bob", ["cid-d", "cid-d", "cid-d"])
        assert list(got) == ["cid-d"]

    def test_quorum_batch_carries_provenance(self):
        backend = _dht_quorum()
        backend.put("alice", "cid-p", b"v1", recipients=[])
        backend.put("alice", "cid-p", b"v2", recipients=[])
        got = backend.get_many("bob", ["cid-p"])["cid-p"]
        assert (got.source, got.version, got.degraded) == ("quorum", 2, False)
        single = backend.fetch_blob("bob", "cid-p")
        assert (single.source, single.version) == ("quorum", 2)

    @pytest.mark.parametrize("factory", [_dht, _dht_quorum, _federation],
                             ids=["dht", "dht_quorum", "federation"])
    def test_batch_sends_fewer_messages(self, factory):
        """The point of the batch: coalesced routing / per-holder RPCs."""
        backend = factory()
        network = (backend.ring.network if hasattr(backend, "ring")
                   else backend.federation.network)
        cids = [f"cid-{i}" for i in range(8)]
        for cid in cids:
            backend.put("alice", cid, b"x", recipients=["bob", "carol"])
        before = network.stats.messages
        for cid in cids:
            backend.fetch_blob("bob", cid).blob
        sequential = network.stats.messages - before
        before = network.stats.messages
        got = backend.get_many("bob", cids)
        batched = network.stats.messages - before
        assert not any(isinstance(v, Exception) for v in got.values())
        assert batched < sequential, (
            f"batched read cost {batched} messages vs {sequential} "
            "sequential — coalescing bought nothing")


class TestDHTReplicaObserverViews:
    """Satellite guard: E8 exposure must charge *all* replica holders.

    A cid put on a replicated ring is physically stored at every member
    of its replica set, so each of those peers is an observer of the
    ciphertext — attributing it only to the primary successor would
    undercount the "many small providers" exposure the paper warns about.
    """

    @pytest.mark.parametrize("factory", [_dht, _dht_quorum],
                             ids=["legacy", "quorum"])
    def test_all_replica_holders_observe_the_cid(self, factory):
        backend = factory()
        backend.put("alice", "cid-r", b"blob", recipients=["bob"])
        views = backend.observer_views()
        holders = backend.ring.replica_set("cid-r")
        assert len(holders) >= 2, "replicated put must pick several holders"
        for holder in holders:
            assert "cid-r" in views[holder], (
                f"replica holder {holder!r} stores cid-r but the observer "
                "view does not attribute it")

    def test_quorum_overwrite_updates_every_holder_copy(self):
        backend = _dht_quorum()
        backend.put("alice", "cid-s", b"old", recipients=[])
        backend.put("alice", "cid-s", b"new", recipients=[])
        quorum = backend.quorum
        stored = {holder: quorum.ring.nodes[holder].store["cid-s"]
                  for holder in backend.placements["cid-s"]}
        versions = {holder: quorum._verify("cid-s", blob).version
                    for holder, blob in stored.items()}
        assert set(versions.values()) == {2}


class TestLocalBackendOfflineOwner:
    def test_offline_owner_makes_content_unavailable(self):
        backend = _local()
        backend.put("alice", "cid-6", b"only-copy")
        assert backend.fetch_blob("bob", "cid-6").blob == b"only-copy"
        backend.online["alice"] = False
        with pytest.raises(StorageError):
            backend.fetch_blob("bob", "cid-6").blob

    def test_owner_back_online_restores_availability(self):
        backend = _local()
        backend.put("alice", "cid-7", b"only-copy")
        backend.online["alice"] = False
        backend.online["alice"] = True
        assert backend.fetch_blob("bob", "cid-7").blob == b"only-copy"


class TestFederationBackendOfflinePod:
    """A reader's reads all go to its home pod: while that pod is down,
    every read entry point fails, and none serves a stale copy."""

    def _backend_with_offline_pod(self):
        backend = _federation()
        backend.put("alice", "cid-f", b"pod-copy", recipients=["bob"])
        pod = backend.federation.servers[backend.federation.home["bob"]]
        pod.go_offline()
        return backend, pod

    def test_offline_home_pod_makes_content_unavailable(self, read):
        backend, _ = self._backend_with_offline_pod()
        with pytest.raises(LookupError_):
            read(backend, "bob", "cid-f")

    def test_offline_home_pod_fails_each_id_of_a_batch(self):
        backend, _ = self._backend_with_offline_pod()
        got = backend.get_many("bob", ["cid-f", "cid-ghost", "cid-f"])
        assert list(got) == ["cid-f", "cid-ghost"]
        assert all(isinstance(value, LookupError_)
                   for value in got.values())

    def test_home_pod_back_online_restores_availability(self, read):
        backend, pod = self._backend_with_offline_pod()
        pod.go_online()
        assert read(backend, "bob", "cid-f") == b"pod-copy"


class TestCentralProviderPublicSurface:
    def test_stored_ids_matches_observer_view(self):
        provider = CentralProvider()
        backend = CentralBackend(provider)
        backend.put("alice", "cid-8", b"x")
        backend.put("bob", "cid-9", b"y")
        assert provider.stored_ids() == {"cid-8", "cid-9"}
        assert backend.observer_views() == {
            provider.name: {"cid-8", "cid-9"}}

    def test_stored_ids_survives_pretend_delete(self):
        provider = CentralProvider()
        provider.store("alice", "cid-10", b"x")
        provider.delete("cid-10")
        # data retention: the bytes are still physically there
        assert provider.stored_ids() == {"cid-10"}
