"""Prime-order discrete-log groups over safe primes.

A :class:`SchnorrGroup` is the order-``q`` subgroup of ``Z_p*`` for a safe
prime ``p = 2q + 1``.  It backs ElGamal, Schnorr signatures, the 2HashDH
OPRF and the zero-knowledge proof — everything in the survey that needs
plain discrete logs rather than pairings.
"""

from __future__ import annotations

import random as _random
from dataclasses import dataclass, field
from typing import List, Optional

from repro.crypto import params as _params
from repro.crypto.hashing import hash_to_int
from repro.exceptions import CryptoError

_DEFAULT_RNG = _random.Random(0xD106)


@dataclass(frozen=True)
class SchnorrGroup:
    """The prime-order-``q`` subgroup of ``Z_p*`` with ``p = 2q + 1``.

    The subgroup is exactly the set of quadratic residues mod ``p``; squaring
    any element of ``Z_p*`` lands in it, which is how :meth:`hash_to_element`
    and :meth:`element_from_int` work.
    """

    p: int
    q: int = field(init=False)
    g: int = field(init=False)
    #: fixed-base table for :meth:`exp`, filled on first use; a cache, so
    #: not part of the group's identity (eq/hash/repr ignore it)
    _g_windows: List[int] = field(default_factory=list, init=False,
                                  repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.p % 2 == 0 or self.p < 7:
            raise CryptoError("p must be an odd prime >= 7")
        object.__setattr__(self, "q", (self.p - 1) // 2)
        # 4 = 2^2 is a quadratic residue, hence of order q (it is not 1).
        object.__setattr__(self, "g", 4 % self.p)

    def random_scalar(self, rng: Optional[_random.Random] = None) -> int:
        """Uniform exponent in ``[1, q)``."""
        rng = rng or _DEFAULT_RNG
        return rng.randrange(1, self.q)

    def power(self, base: int, exponent: int) -> int:
        """``base^exponent mod p`` (exponent reduced mod q for subgroup bases)."""
        return pow(base, exponent % self.q, self.p)

    def exp(self, exponent: int) -> int:
        """``g^exponent mod p``, one multiplication per nonzero 4-bit digit.

        ``g`` is the base of every keygen, signature and proof, so its
        powers ``g^(d * 16^i)`` are tabulated once per group (16 entries
        per digit of ``q``: ~1k integers, ~60 KB at 256 bits) and an
        exponentiation is the product of one entry per digit — the same
        value as ``pow(g, exponent % q, p)`` at a quarter of the cost.
        Only ``g`` gets a table: one per public key would cost that
        memory per user.
        """
        e = exponent % self.q
        windows = self._g_windows or self._fill_g_windows()
        p = self.p
        result = 1
        base = 0
        while e:
            digit = e & 15
            if digit:
                result = result * windows[base + digit] % p
            e >>= 4
            base += 16
        return result

    def _fill_g_windows(self) -> List[int]:
        """``windows[16 * i + d] = g^(d * 16^i)`` for every digit of ``q``."""
        p = self.p
        windows: List[int] = []
        step = self.g
        for _ in range((self.q.bit_length() + 3) // 4):
            row = [1]
            for _ in range(15):
                row.append(row[-1] * step % p)
            windows += row
            step = row[15] * step % p
        self._g_windows[:] = windows
        return self._g_windows

    def mul(self, a: int, b: int) -> int:
        """Group multiplication."""
        return a * b % self.p

    def inverse(self, a: int) -> int:
        """Inverse mod ``p`` (``0`` for ``a = 0 mod p``, which has none)."""
        return pow(a, -1, self.p) if a % self.p else 0

    def element_from_int(self, value: int) -> int:
        """Map an arbitrary integer into the subgroup by squaring."""
        v = value % self.p
        if v == 0:
            v = 1
        return v * v % self.p

    def hash_to_element(self, data: bytes, domain: bytes = b"") -> int:
        """Hash bytes onto a subgroup element (random-oracle style)."""
        raw = hash_to_int(data, self.p - 1, domain=b"repro/grp" + domain) + 1
        return self.element_from_int(raw)

    def hash_to_scalar(self, data: bytes, domain: bytes = b"") -> int:
        """Hash bytes to a nonzero exponent mod ``q``."""
        return hash_to_int(data, self.q - 1, domain=b"repro/grps" + domain) + 1

    def contains(self, value: int) -> bool:
        """Membership test for the order-q subgroup."""
        return 0 < value < self.p and pow(value, self.q, self.p) == 1


_GROUP_CACHE: dict = {}


def schnorr_group(bits: int = 256) -> SchnorrGroup:
    """The shared group over the precomputed safe prime of ``bits`` bits."""
    if bits not in _GROUP_CACHE:
        _GROUP_CACHE[bits] = SchnorrGroup(p=_params.safe_prime(bits))
    return _GROUP_CACHE[bits]


def group_for_level(level: str = "TOY") -> SchnorrGroup:
    """Group sized for a named security level (TOY/TEST/STD)."""
    try:
        bits = _params.LEVEL_BITS[level.upper()]
    except KeyError:
        raise CryptoError(f"unknown level {level!r}")
    return schnorr_group(bits)
