"""Golden bytes: one digest over everything the five ACL schemes store.

The wall-clock harness digests *outcomes* (which slot was read, whether a
revoked member was refused), never ciphertext bytes — so an "exact" fast
path in ``repro.crypto`` that changed one byte of a header, a wrapped key
or an AEAD blob would pass it.  This test pins those bytes: a seeded
lifecycle of every ``SCHEME_REGISTRY`` scheme, then a SHA-256 over every
stored header, blob and key in a canonical (sorted) serialisation.

``AES_CTR_GOLDEN`` was computed at the commit *before* ``pow(a, -1, m)``,
the Jacobian G1 / Miller loop and the T-table AES landed, which reproduced
it unchanged.  ``GOLDEN`` is the same lifecycle once ``AuthenticatedCipher``
runs the SHA-256-CTR keystream in place of AES-CTR.  Only keystream bytes
moved: with the AES-CTR keystream patched back in, the lifecycle still
yields ``AES_CTR_GOLDEN`` — every length, header, wrapped key, tag input
and RNG draw is as before.  Both were re-pinned once more when every scheme
began drawing per member in sorted member order: the preceding commit with
only that loop order changed reproduces the new values under every hash
seed.  They moved a last time when ``HybridACL`` kept only its CP-ABE key
wrap and ``PublicKeyACL`` its one revocation mode: the serialiser sees
neither the schemes' ``kem_kind`` / ``_strict`` attributes, nor
``HybridACL._level``, nor the hybrid record's ``kem_kind`` tag any more,
and the preceding code with exactly those four names left out of the
serialisation gives the new values.
Any later change to the crypto substrate must reproduce ``GOLDEN``
unchanged.

Schemes draw from one RNG per member in sorted member order, so the bytes
do not depend on ``str`` hashing: the lifecycle runs in child interpreters
under two ``PYTHONHASHSEED`` values, and both must give the same digest.
"""

import dataclasses
import hashlib
import os
import random
import subprocess
import sys
from unittest import mock

import pytest

from repro.acl import SCHEME_REGISTRY
from repro.acl.base import AccessControlScheme, CostMeter
from repro.crypto import symmetric as sym
from repro.crypto.abe import CPABE
from repro.crypto.groups import SchnorrGroup
from repro.crypto.ibbe import IBBE
from repro.crypto.pairing import G1Element, GTElement, PairingGroup

GOLDEN = "c8a350f09dc1aea4cec1d6da9fb4d038cd44caa8e67651881cd9f125650f6f4f"
AES_CTR_GOLDEN = \
    "998ab068d517f10b19a2dae4914c97b25a863552706d4f972b5b3b874a97b8b5"

MEMBERS = ["alice", "bob", "carol", "dave", "erin"]


def _canon(obj) -> bytes:
    """A hash-seed-independent byte encoding of scheme state.

    Raises on a type it does not know, so new state cannot be skipped
    silently.
    """
    if obj is None or isinstance(obj, (bool, int, str, bytes)):
        return repr(obj).encode() + b";"
    if isinstance(obj, (G1Element, GTElement)):
        return f"{type(obj).__name__}{obj.to_bytes().hex()};".encode()
    if isinstance(obj, (PairingGroup, SchnorrGroup)):
        # a context, not stored data (and it carries lazy caches)
        return f"{type(obj).__name__}(p={obj.p});".encode()
    if isinstance(obj, (CPABE, IBBE)):
        return type(obj).__name__.encode() + _canon(obj.group)
    if isinstance(obj, random.Random):
        # the RNG's position: one extra or missing draw anywhere shows
        return repr(obj.getstate()).encode() + b";"
    if isinstance(obj, CostMeter):
        return _canon(dict(obj.counts))
    if isinstance(obj, (list, tuple)):
        return b"[" + b"".join(_canon(x) for x in obj) + b"]"
    if isinstance(obj, (set, frozenset)):
        return b"{" + b"".join(sorted(_canon(x) for x in obj)) + b"}"
    if isinstance(obj, dict):
        items = sorted((_canon(k), _canon(v)) for k, v in obj.items())
        return b"{" + b"".join(k + b":" + v for k, v in items) + b"}"
    if dataclasses.is_dataclass(obj):
        # a ``compare=False`` field is a lazy cache (a key's comb, a derived
        # public key), not stored data; no such field existed in the
        # lifecycle's state when ``GOLDEN`` was computed
        return (type(obj).__name__.encode() + b"("
                + b"".join(_canon(getattr(obj, f.name))
                           for f in dataclasses.fields(obj) if f.compare)
                + b")")
    if isinstance(obj, AccessControlScheme):
        return type(obj).__name__.encode() + _canon(vars(obj))
    raise TypeError(f"golden serialiser does not know {type(obj).__name__}")


def _lifecycle(scheme: AccessControlScheme, data: random.Random) -> list:
    """create 5, publish x3, revoke, publish, re-admit, read x3."""
    reads = []
    scheme.create_group("g", list(MEMBERS))
    for i in range(3):
        scheme.publish("g", f"item{i}", data.randbytes(100 + 450 * i))
    scheme.revoke_member("g", "bob")
    scheme.publish("g", "item3", data.randbytes(17))
    scheme.add_member("g", "bob")
    for item, reader in (("item0", "alice"), ("item3", "carol"),
                         ("item2", "erin")):
        reads.append(scheme.read("g", item, reader))
    return reads


def lifecycle_digest() -> str:
    digest = hashlib.sha256()
    for name, cls in sorted(SCHEME_REGISTRY.items()):
        scheme = cls(rng=random.Random(f"golden/{name}"))
        reads = _lifecycle(scheme, random.Random(f"golden-data/{name}"))
        digest.update(name.encode() + _canon(reads) + _canon(scheme))
    return digest.hexdigest()


def _aes_ctr_keystream(key: bytes, nonce: bytes, length: int) -> bytes:
    """AES-CTR over zeros; ``aes_ctr`` rejects any nonce but the AEAD's 8
    bytes, so a ``StreamCipher`` reaching it would fail, not blend in."""
    return sym.aes_ctr(key, nonce, bytes(length))


def aes_ctr_lifecycle_digest() -> str:
    with mock.patch.object(sym, "_sha256_ctr", _aes_ctr_keystream):
        return lifecycle_digest()


#: the ``str`` hash seeds the child interpreters run under
HASH_SEEDS = ("1", "2")


def _child_digest(function: str, hash_seed: str) -> str:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed,
               PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run(
        [sys.executable, "-c",
         f"from tests.acl.test_golden_bytes import {function};"
         f"print({function}())"],
        env=env, capture_output=True, text=True, check=True, timeout=120)
    return out.stdout.strip()


def test_stored_bytes_of_all_five_schemes_are_unchanged():
    assert [_child_digest("lifecycle_digest", seed)
            for seed in HASH_SEEDS] == [GOLDEN] * len(HASH_SEEDS)


def test_only_the_aead_keystream_moved_since_the_aes_ctr_golden():
    assert [_child_digest("aes_ctr_lifecycle_digest", seed)
            for seed in HASH_SEEDS] == [AES_CTR_GOLDEN] * len(HASH_SEEDS)


def test_canonical_encoding_rejects_unknown_state():
    class Opaque:
        pass

    with pytest.raises(TypeError):
        _canon({"x": Opaque()})
