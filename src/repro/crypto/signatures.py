"""Digital signatures: Schnorr and DSA, with a uniform keypair API.

Digital signatures are the universal tool of Section IV ("commonly used
methods to protect data integrity are based on digital signatures"): they
provide integrity of the data owner and of the data content, and they anchor
the hash-chain and history-tree constructions.

Two schemes are provided over the same :class:`~repro.crypto.groups.SchnorrGroup`:

* :class:`SchnorrSigner` — Schnorr signatures (Fiat–Shamir transformed
  identification), the scheme also reused by the ZKP module;
* :class:`DSASigner` — classic DSA over the safe-prime group.

RSA signatures live in :mod:`repro.crypto.rsa`; all three satisfy the same
``sign(bytes) -> signature`` / ``verify(...)`` shape used by the integrity
layer.
"""

from __future__ import annotations

import random as _random
from dataclasses import dataclass, field
from typing import Optional, Tuple

from repro.crypto.groups import SchnorrGroup, group_for_level
from repro.crypto.hashing import hash_to_int
from repro.crypto.numbertheory import modinv
from repro.exceptions import SignatureError

_DEFAULT_RNG = _random.Random(0x516)

#: Schnorr signature: (challenge e, response s).
SchnorrSignature = Tuple[int, int]
#: DSA signature: (r, s).
DSASignature = Tuple[int, int]


def _challenge(group: SchnorrGroup, commitment: int, public: int,
               message: bytes) -> int:
    width = (group.p.bit_length() + 7) // 8
    data = (commitment.to_bytes(width, "big")
            + public.to_bytes(width, "big") + message)
    return hash_to_int(data, group.q, domain=b"repro/schnorr")


@dataclass(frozen=True)
class SchnorrPublicKey:
    """Verification key ``y = g^x``."""

    group: SchnorrGroup
    y: int

    def verify(self, message: bytes, signature: SchnorrSignature) -> bool:
        """Check ``e == H(g^s * y^-e, y, m)``."""
        e, s = signature
        if not 0 <= e < self.group.q or not 0 <= s < self.group.q:
            return False
        commitment = self.group.mul(
            self.group.exp(s),
            self.group.inverse(self.group.power(self.y, e)))
        return _challenge(self.group, commitment, self.y, message) == e

    def verify_or_raise(self, message: bytes,
                        signature: SchnorrSignature) -> None:
        """Raise :class:`SignatureError` on a bad signature."""
        if not self.verify(message, signature):
            raise SignatureError("Schnorr signature verification failed")

    def to_bytes(self) -> bytes:
        """Canonical encoding for identity fingerprints."""
        width = (self.group.p.bit_length() + 7) // 8
        return self.y.to_bytes(width, "big")


@dataclass(frozen=True)
class SchnorrSigner:
    """Signing key ``x`` with its cached public half."""

    group: SchnorrGroup
    x: int
    _public: Optional[SchnorrPublicKey] = field(default=None, init=False,
                                            repr=False, compare=False)

    @property
    def public_key(self) -> SchnorrPublicKey:
        """The verification key ``g^x`` (derived once)."""
        if self._public is None:
            object.__setattr__(self, "_public", SchnorrPublicKey(
                self.group, self.group.exp(self.x)))
        return self._public

    def sign(self, message: bytes,
             rng: Optional[_random.Random] = None) -> SchnorrSignature:
        """Produce ``(e, s)`` with ``s = k + e*x`` for random nonce ``k``."""
        rng = rng or _DEFAULT_RNG
        k = self.group.random_scalar(rng)
        commitment = self.group.exp(k)
        e = _challenge(self.group, commitment, self.public_key.y, message)
        s = (k + e * self.x) % self.group.q
        return (e, s)


def generate_schnorr_keypair(level: str = "TOY",
                             rng: Optional[_random.Random] = None,
                             group: Optional[SchnorrGroup] = None
                             ) -> SchnorrSigner:
    """Fresh Schnorr signing key at the given parameter level."""
    group = group or group_for_level(level)
    rng = rng or _DEFAULT_RNG
    return SchnorrSigner(group=group, x=group.random_scalar(rng))


@dataclass(frozen=True)
class DSAPublicKey:
    """DSA verification key."""

    group: SchnorrGroup
    y: int

    def verify(self, message: bytes, signature: DSASignature) -> bool:
        """Standard DSA verification over the safe-prime subgroup."""
        r, s = signature
        group = self.group
        if not (0 < r < group.q and 0 < s < group.q):
            return False
        w = modinv(s, group.q)
        h = hash_to_int(message, group.q, domain=b"repro/dsa")
        u1 = h * w % group.q
        u2 = r * w % group.q
        v = group.mul(group.exp(u1), group.power(self.y, u2)) % group.q
        return v == r


@dataclass(frozen=True)
class DSASigner:
    """DSA signing key."""

    group: SchnorrGroup
    x: int
    _public: Optional[DSAPublicKey] = field(default=None, init=False,
                                        repr=False, compare=False)

    @property
    def public_key(self) -> DSAPublicKey:
        """The verification key ``g^x`` (derived once)."""
        if self._public is None:
            object.__setattr__(self, "_public", DSAPublicKey(
                self.group, self.group.exp(self.x)))
        return self._public

    def sign(self, message: bytes,
             rng: Optional[_random.Random] = None) -> DSASignature:
        """Produce a DSA ``(r, s)`` pair (nonce resampled on degenerate 0s)."""
        rng = rng or _DEFAULT_RNG
        group = self.group
        h = hash_to_int(message, group.q, domain=b"repro/dsa")
        while True:
            k = group.random_scalar(rng)
            r = group.exp(k) % group.q
            if r == 0:
                continue
            s = modinv(k, group.q) * (h + self.x * r) % group.q
            if s != 0:
                return (r, s)


def generate_dsa_keypair(level: str = "TOY",
                         rng: Optional[_random.Random] = None,
                         group: Optional[SchnorrGroup] = None) -> DSASigner:
    """Fresh DSA signing key at the given parameter level."""
    group = group or group_for_level(level)
    rng = rng or _DEFAULT_RNG
    return DSASigner(group=group, x=group.random_scalar(rng))
