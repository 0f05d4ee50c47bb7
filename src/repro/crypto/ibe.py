"""Boneh–Franklin Identity-Based Encryption (BasicIdent).

Section III-E of the paper: "In an Identity Based Encryption scheme, public
keys can be any arbitrary string like email addresses. In such schemes,
there is a trusted third party named Private Key Generator (PKG) that
produces corresponding private keys."

The PKG is an explicit object (:class:`PrivateKeyGenerator`) because it is
the (semi-)trusted service the scheme rests on: it can extract every
identity's key.
"""

from __future__ import annotations

import random as _random
from dataclasses import dataclass
from typing import Optional

from repro.crypto.hashing import hkdf
from repro.crypto.pairing import G1Element, PairingGroup, pairing_group
from repro.crypto.symmetric import AuthenticatedCipher
from repro.exceptions import DecryptionError

_DEFAULT_RNG = _random.Random(0x1BE)


@dataclass(frozen=True)
class IBEPublicParams:
    """System parameters published by the PKG: ``(g, g^s)``."""

    group: PairingGroup
    g: G1Element
    g_s: G1Element


@dataclass(frozen=True)
class IBEPrivateKey:
    """A user's extracted key ``d_ID = H(ID)^s``."""

    identity: str
    d: G1Element


@dataclass(frozen=True)
class IBECiphertext:
    """``(U, V) = (g^r, AEAD under key derived from e(H(ID), g^s)^r)``."""

    u: G1Element
    v: bytes


def _identity_point(group: PairingGroup, identity: str) -> G1Element:
    return group.hash_to_g1(b"repro/ibe/id/" + identity.encode())


class PrivateKeyGenerator:
    """The IBE trusted third party: holds the master secret ``s``.

    ``extract`` is the only operation that touches the master secret; the
    public parameters are safe to broadcast.
    """

    def __init__(self, level: str = "TOY",
                 rng: Optional[_random.Random] = None) -> None:
        self.group = pairing_group(level)
        rng = rng or _DEFAULT_RNG
        self._s = self.group.random_scalar(rng)
        self.params = IBEPublicParams(
            group=self.group, g=self.group.generator,
            g_s=self.group.generator ** self._s)

    def extract(self, identity: str) -> IBEPrivateKey:
        """Issue the private key for an identity string."""
        return IBEPrivateKey(identity=identity,
                             d=_identity_point(self.group, identity) ** self._s)


def encrypt(params: IBEPublicParams, identity: str, message: bytes,
            rng: Optional[_random.Random] = None) -> IBECiphertext:
    """Encrypt to an identity string — no per-user key exchange needed."""
    rng = rng or _DEFAULT_RNG
    group = params.group
    r = group.random_scalar(rng)
    q_id = _identity_point(group, identity)
    shared = group.pair(q_id, params.g_s) ** r
    key = hkdf(shared.to_bytes(), 32, info=b"repro/ibe/kem")
    return IBECiphertext(u=params.g ** r,
                         v=AuthenticatedCipher(key).encrypt(message, rng=rng))


def decrypt(params: IBEPublicParams, private_key: IBEPrivateKey,
            ciphertext: IBECiphertext) -> bytes:
    """Decrypt with an extracted key: ``e(d_ID, U) == e(H(ID), g^s)^r``."""
    shared = params.group.pair(private_key.d, ciphertext.u)
    key = hkdf(shared.to_bytes(), 32, info=b"repro/ibe/kem")
    try:
        return AuthenticatedCipher(key).decrypt(ciphertext.v)
    except DecryptionError:
        raise DecryptionError(
            f"IBE decryption failed (key for {private_key.identity!r} "
            "does not match this ciphertext)")
