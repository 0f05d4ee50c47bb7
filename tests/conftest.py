"""Shared fixtures for the test suite.

Everything derives from explicit seeds so a failure is reproducible by
seed; fixtures that are expensive to build (pairing setups, ABE contexts)
are session-scoped and treated as read-only by tests.
"""

import random

import pytest

from repro.crypto.abe import CPABE
from repro.crypto.ibbe import IBBE
from repro.crypto.pairing import pairing_group
from repro.crypto.signatures import SchnorrPublicKey


@pytest.fixture
def rng():
    """A fresh deterministic RNG per test."""
    return random.Random(0xDECAF)


@pytest.fixture(scope="session")
def toy_group():
    """The TOY pairing group (shared, stateless)."""
    return pairing_group("TOY")


@pytest.fixture(scope="session")
def abe_setup():
    """A CP-ABE context with one setup: (scheme, pk, msk)."""
    scheme = CPABE("TOY")
    pk, msk = scheme.setup(random.Random(100))
    return scheme, pk, msk


@pytest.fixture(scope="session")
def ibbe_setup():
    """An IBBE context for up to 16 recipients: (scheme, pk, msk)."""
    scheme = IBBE("TOY")
    pk, msk = scheme.setup(16, random.Random(101))
    return scheme, pk, msk


@pytest.fixture
def verifies(monkeypatch):
    """The key of every Schnorr verify the test runs."""
    calls = []
    original = SchnorrPublicKey.verify

    def spy(key, message, signature):
        calls.append(key)
        return original(key, message, signature)

    monkeypatch.setattr(SchnorrPublicKey, "verify", spy)
    return calls
