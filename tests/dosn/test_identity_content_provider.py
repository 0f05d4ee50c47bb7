"""Tests for identities/key registry, content ids, and the provider."""

import pytest

from repro.dosn.content import content_id
from repro.dosn.identity import Identity, KeyRegistry, create_identity
from repro.dosn.provider import CentralProvider, ExposureReport
from repro.exceptions import CryptoError, InvalidKeyError, StorageError


class TestIdentity:
    def test_create_identity_deterministic_per_name(self):
        a1 = create_identity("alice")
        a2 = create_identity("alice")
        assert a1.fingerprint() == a2.fingerprint()

    def test_distinct_users_distinct_keys(self):
        assert create_identity("alice").fingerprint() != \
            create_identity("bob").fingerprint()

    def test_registry_roundtrip(self):
        registry = KeyRegistry()
        alice = create_identity("alice")
        registry.register(alice)
        public = registry.get("alice")
        assert public.verify_key.y == alice.verify_key.y
        assert "alice" in registry and len(registry) == 1

    def test_registry_blocks_key_substitution(self):
        """An impersonator cannot rebind a registered name to new keys."""
        registry = KeyRegistry()
        registry.register(create_identity("alice"))
        import random
        impostor = create_identity("alice", rng=random.Random(999))
        with pytest.raises(InvalidKeyError):
            registry.register(impostor)

    def test_registry_register_idempotent(self):
        registry = KeyRegistry()
        alice = create_identity("alice")
        registry.register(alice)
        registry.register(alice)  # same keys: fine
        assert len(registry) == 1

    def test_unknown_user_raises(self):
        with pytest.raises(CryptoError):
            KeyRegistry().get("ghost")

    def test_signing_works_end_to_end(self):
        alice = create_identity("alice")
        sig = alice.signer.sign(b"message")
        assert alice.verify_key.verify(b"message", sig)


class TestContent:
    def test_content_id_stable_and_distinct(self):
        a = content_id("alice", "post", b"hello", 0)
        assert a == content_id("alice", "post", b"hello", 0)
        assert a != content_id("alice", "post", b"hello", 1)
        assert a != content_id("bob", "post", b"hello", 0)
        assert a != content_id("alice", "comment", b"hello", 0)


class TestCentralProvider:
    def _provider(self):
        provider = CentralProvider()
        provider.store("alice", "c1", b"post one")
        provider.store("bob", "c2", b"post two")
        provider.record_edge("alice", "bob")
        return provider

    def test_store_fetch_and_read_log(self):
        provider = self._provider()
        assert provider.fetch("carol", "c1") == b"post one"
        assert ("carol", "c1") in provider.read_log

    def test_data_retention(self):
        """Section II-A: deletion is cosmetic; employees still read it."""
        provider = self._provider()
        provider.delete("c1")
        with pytest.raises(StorageError):
            provider.fetch("carol", "c1")
        assert provider.employee_browse("c1") == b"post one"

    def test_employee_browse_everything(self):
        provider = self._provider()
        assert provider.employee_browse("c2") == b"post two"
        with pytest.raises(StorageError):
            provider.employee_browse("never-uploaded")

    def test_sell_profile_dossier(self):
        provider = self._provider()
        provider.fetch("alice", "c2")
        dossier = provider.sell_profile("alice")
        assert dossier["content"] == {"c1": b"post one"}
        assert dossier["friends"] == {"bob"}
        assert dossier["read_history"] == ["c2"]

    def test_exposure_full_view(self):
        provider = self._provider()
        report = provider.exposure(total_content=2, total_edges=1)
        assert report.content_view == 1.0
        assert report.metadata_view == 1.0
        assert report.graph_view == 1.0

    def test_exposure_with_encryption(self):
        provider = self._provider()
        report = provider.exposure(total_content=2, total_edges=1,
                                   readable_ids=set())
        assert report.content_view == 0.0
        assert report.metadata_view == 1.0  # ciphertexts still metadata

    def test_exposure_dominates(self):
        big = ExposureReport("p", 1.0, 1.0, 1.0)
        small = ExposureReport("q", 0.1, 0.5, 0.2)
        assert big.dominates(small)
        assert not small.dominates(big)
        assert not big.dominates(big)  # not strictly more
