"""ElGamal public-key encryption over a Schnorr group.

This is the textbook asymmetric scheme of Section III-C, used by the
public-key access-control manager (:mod:`repro.acl.publickey_acl`): content
keys are ElGamal-encrypted under the public key of every group member.
"""

from __future__ import annotations

import random as _random
from dataclasses import dataclass, field
from typing import Optional, Tuple

from repro.crypto.groups import SchnorrGroup, group_for_level
from repro.crypto.hashing import hkdf
from repro.crypto.symmetric import AuthenticatedCipher
from repro.exceptions import DecryptionError, InvalidKeyError

_DEFAULT_RNG = _random.Random(0xE16A)


@dataclass(frozen=True)
class ElGamalPublicKey:
    """``h = g^x`` plus the group it lives in."""

    group: SchnorrGroup
    h: int
    #: the :meth:`~SchnorrGroup.comb` of ``h``, built on the first
    #: encryption; a cache, so eq/hash/repr ignore it
    _comb: Tuple[int, ...] = field(default=(), init=False, repr=False,
                                   compare=False)

    def to_bytes(self) -> bytes:
        """Canonical serialization for fingerprinting."""
        width = (self.group.p.bit_length() + 7) // 8
        return self.h.to_bytes(width, "big")

    def _shared(self, r: int) -> int:
        """``h^r``, the same value as ``group.power(h, r)``."""
        if not self._comb:
            object.__setattr__(self, "_comb", self.group.comb(self.h))
        return self.group.comb_power(self._comb, r)


@dataclass(frozen=True)
class ElGamalPrivateKey:
    """The discrete log ``x`` of the public key."""

    group: SchnorrGroup
    x: int
    _public: Optional[ElGamalPublicKey] = field(default=None, init=False,
                                                repr=False, compare=False)

    @property
    def public_key(self) -> ElGamalPublicKey:
        """The matching public key ``g^x`` (derived once, so its comb is
        built once)."""
        if self._public is None:
            object.__setattr__(self, "_public", ElGamalPublicKey(
                self.group, self.group.exp(self.x)))
        return self._public


#: An ElGamal ciphertext ``(c1, c2) = (g^r, m * h^r)``.
Ciphertext = Tuple[int, int]


def generate_keypair(level: str = "TOY",
                     rng: Optional[_random.Random] = None,
                     group: Optional[SchnorrGroup] = None) -> ElGamalPrivateKey:
    """Fresh ElGamal keypair in the group for ``level`` (or an explicit group)."""
    group = group or group_for_level(level)
    rng = rng or _DEFAULT_RNG
    return ElGamalPrivateKey(group=group, x=group.random_scalar(rng))


def encrypt_element(pub: ElGamalPublicKey, message: int,
                    rng: Optional[_random.Random] = None) -> Ciphertext:
    """Encrypt a group element: ``(g^r, m * h^r)``."""
    if not pub.group.contains(message):
        raise InvalidKeyError("message must be a subgroup element; "
                              "use encrypt_bytes for arbitrary data")
    rng = rng or _DEFAULT_RNG
    r = pub.group.random_scalar(rng)
    return (pub.group.exp(r), pub.group.mul(message, pub._shared(r)))


def decrypt_element(priv: ElGamalPrivateKey, ciphertext: Ciphertext) -> int:
    """Invert :func:`encrypt_element`."""
    c1, c2 = ciphertext
    group = priv.group
    if not (group.contains(c1) and group.contains(c2)):
        raise DecryptionError("ciphertext components outside the subgroup")
    shared = group.power(c1, priv.x)
    return group.mul(c2, group.inverse(shared))


def encrypt_bytes(pub: ElGamalPublicKey, message: bytes,
                  rng: Optional[_random.Random] = None) -> bytes:
    """Hybrid KEM/DEM: ElGamal-wrap a random element, AEAD the payload.

    Output: ``len(c1) || c1 || c2 || aead_blob`` with fixed-width integers.
    """
    rng = rng or _DEFAULT_RNG
    group = pub.group
    r = group.random_scalar(rng)
    kem_element = group.element_from_int(rng.randrange(1, group.p))
    c1, c2 = group.exp(r), group.mul(kem_element, pub._shared(r))
    width = (group.p.bit_length() + 7) // 8
    key = hkdf(kem_element.to_bytes(width, "big"), 32,
               info=b"repro/elgamal/kem")
    blob = AuthenticatedCipher(key).encrypt(message, rng=rng)
    return (width.to_bytes(2, "big") + c1.to_bytes(width, "big")
            + c2.to_bytes(width, "big") + blob)


def decrypt_bytes(priv: ElGamalPrivateKey, ciphertext: bytes) -> bytes:
    """Invert :func:`encrypt_bytes`."""
    if len(ciphertext) < 2:
        raise DecryptionError("truncated ciphertext")
    width = int.from_bytes(ciphertext[:2], "big")
    if len(ciphertext) < 2 + 2 * width:
        raise DecryptionError("truncated ciphertext")
    c1 = int.from_bytes(ciphertext[2:2 + width], "big")
    c2 = int.from_bytes(ciphertext[2 + width:2 + 2 * width], "big")
    blob = ciphertext[2 + 2 * width:]
    kem_element = decrypt_element(priv, (c1, c2))
    key = hkdf(kem_element.to_bytes(width, "big"), 32,
               info=b"repro/elgamal/kem")
    return AuthenticatedCipher(key).decrypt(blob)
