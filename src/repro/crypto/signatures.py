"""Digital signatures: Schnorr, the scheme every signed object here uses.

Digital signatures are the universal tool of Section IV ("commonly used
methods to protect data integrity are based on digital signatures"): they
provide integrity of the data owner and of the data content, and they anchor
the hash-chain and history-tree constructions.

:class:`SchnorrSigner` signs over a
:class:`~repro.crypto.groups.SchnorrGroup` (Fiat–Shamir transformed
identification, the construction the ZKP module reuses).  RSA signatures
live in :mod:`repro.crypto.rsa`; both satisfy the same ``sign(bytes) ->
signature`` / ``verify(...)`` shape used by the integrity layer.
"""

from __future__ import annotations

import random as _random
from dataclasses import dataclass, field
from typing import Optional, Tuple

from repro.crypto.groups import SchnorrGroup, group_for_level
from repro.crypto.hashing import hash_to_int

_DEFAULT_RNG = _random.Random(0x516)

#: Schnorr signature: (challenge e, response s).
SchnorrSignature = Tuple[int, int]


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
    #: the :meth:`~SchnorrGroup.comb` of ``y^-1 mod p`` (0 for ``y = 0 mod
    #: p``; it is ``_comb[1]``), built on the first verify.  ``(y^-1)^e =
    #: (y^e)^-1`` for every integer ``y``, so a verify pays no inversion
    #: and no ``pow`` and gets the value the per-call inversion gave.
    _comb: Tuple[int, ...] = field(default=(), init=False, repr=False,
                                   compare=False)

    def verify(self, message: bytes, signature: SchnorrSignature) -> bool:
        """Check ``e == H(g^s * y^-e, y, m)``."""
        e, s = signature
        group = self.group
        if not 0 <= e < group.q or not 0 <= s < group.q:
            return False
        if not self._comb:
            object.__setattr__(self, "_comb",
                               group.comb(group.inverse(self.y)))
        commitment = group.mul(group.exp(s), group.comb_power(self._comb, e))
        return _challenge(group, commitment, self.y, message) == e

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
