"""Coverage for corners the themed suites don't reach: the exception
hierarchy contract, storage backends driven directly, simulator utilities,
and packaging metadata."""

import pytest

import repro
from repro import exceptions as exc
from repro.dosn.provider import CentralProvider
from repro.dosn.storage import (CentralBackend, DHTBackend,
                                FederationBackend, LocalBackend)
from repro.overlay.chord import ChordRing
from repro.overlay.federation import FederatedNetwork
from repro.fabric import Fabric
from repro.overlay.network import SimNetwork
from repro.overlay.simulator import Simulator


class TestExceptionHierarchy:
    """Callers rely on catching ReproError to get everything."""

    LEAVES = [
        exc.CryptoError, exc.InvalidKeyError, exc.DecryptionError,
        exc.SignatureError, exc.IntegrityError, exc.AccessDeniedError,
        exc.PolicyError, exc.SearchError, exc.OverlayError,
        exc.LookupError_, exc.StorageError, exc.SimulationError,
    ]

    @pytest.mark.parametrize("leaf", LEAVES)
    def test_all_derive_from_repro_error(self, leaf):
        assert issubclass(leaf, exc.ReproError)

    def test_crypto_sub_hierarchy(self):
        assert issubclass(exc.InvalidKeyError, exc.CryptoError)
        assert issubclass(exc.DecryptionError, exc.CryptoError)
        assert issubclass(exc.SignatureError, exc.CryptoError)

    def test_overlay_sub_hierarchy(self):
        assert issubclass(exc.LookupError_, exc.OverlayError)
        assert issubclass(exc.StorageError, exc.OverlayError)

    def test_not_shadowing_builtins(self):
        """LookupError_ deliberately avoids shadowing builtins.LookupError."""
        assert exc.LookupError_ is not LookupError
        assert not issubclass(exc.LookupError_, LookupError)


class TestStorageBackendsDirect:
    def test_central_backend(self):
        backend = CentralBackend(CentralProvider("p"))
        backend.put("alice", "c1", b"blob")
        assert backend.fetch_blob("bob", "c1").blob == b"blob"
        assert backend.observer_views() == {"p": {"c1"}}

    def test_dht_backend(self):
        fab = Fabric.create(seed=1)
        ring = ChordRing(fab, replication=2)
        for i in range(16):
            ring.add_node(f"n{i}")
        ring.build()
        backend = DHTBackend(ring)
        backend.put("n0", "c1", b"blob")
        assert backend.fetch_blob("n5", "c1").blob == b"blob"
        holders = [name for name, ids in backend.observer_views().items()
                   if "c1" in ids]
        assert len(holders) == 2  # replication factor
        assert set(holders) == set(ring.replica_set("c1"))

    def test_dht_backend_rejects_non_member(self):
        fab = Fabric.create(seed=2)
        ring = ChordRing(fab)
        ring.add_node("n0")
        ring.build()
        backend = DHTBackend(ring)
        with pytest.raises(exc.StorageError):
            backend.put("ghost", "c1", b"x")

    def test_federation_backend(self):
        net = SimNetwork(Simulator(3))
        federation = FederatedNetwork(net, ["pod0", "pod1"])
        federation.register_user("alice", "pod0")
        federation.register_user("bob", "pod1")
        backend = FederationBackend(federation)
        backend.put("alice", "c1", b"blob", recipients=["bob"])
        assert backend.fetch_blob("bob", "c1").blob == b"blob"
        views = backend.observer_views()
        assert "c1" in views["pod0"] and "c1" in views["pod1"]

    def test_local_backend_views(self):
        backend = LocalBackend()
        backend.put("alice", "c1", b"x")
        backend.put("bob", "c2", b"y")
        assert backend.observer_views() == {"alice": {"c1"},
                                            "bob": {"c2"}}


class TestSimulatorUtilities:
    def test_schedule_at_absolute_time(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: fired.append(sim.now))
        sim.run()
        sim.schedule_at(5.0, lambda: fired.append(sim.now))
        sim.run()
        assert fired == [1.0, 5.0]

    def test_run_advances_clock_to_until(self):
        sim = Simulator()
        sim.run(until=42.0)
        assert sim.now == 42.0

    def test_events_processed_counter(self):
        sim = Simulator()
        for _ in range(5):
            sim.schedule(1.0, lambda: None)
        assert sim.run() == 5


class TestPackaging:
    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_top_level_imports(self):
        import repro.acl
        import repro.crypto
        import repro.dosn
        import repro.extensions
        import repro.integrity
        import repro.overlay
        import repro.search
        import repro.systems
        import repro.workloads
        assert repro.acl.SCHEME_REGISTRY

    def test_all_public_modules_have_docstrings(self):
        import importlib
        import pkgutil
        package = importlib.import_module("repro")
        missing = []
        for module_info in pkgutil.walk_packages(package.__path__,
                                                 prefix="repro."):
            module = importlib.import_module(module_info.name)
            if not (module.__doc__ or "").strip():
                missing.append(module_info.name)
        assert not missing, f"modules without docstrings: {missing}"
