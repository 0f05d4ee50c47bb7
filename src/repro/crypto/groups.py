"""Prime-order discrete-log groups over safe primes.

A :class:`SchnorrGroup` is the order-``q`` subgroup of ``Z_p*`` for a safe
prime ``p = 2q + 1``.  It backs ElGamal, Schnorr signatures, the 2HashDH
OPRF and the zero-knowledge proof — everything in the survey that needs
plain discrete logs rather than pairings.
"""

from __future__ import annotations

import random as _random
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.crypto import params as _params
from repro.crypto.hashing import hash_to_int
from repro.exceptions import CryptoError

_DEFAULT_RNG = _random.Random(0xD106)

#: ``_SPREAD[b]`` has bit ``k`` of the byte ``b`` at bit ``4k``
_SPREAD = tuple(sum((b >> k & 1) << 4 * k for k in range(8))
                for b in range(256))


def _spread(chunk: int) -> int:
    """``chunk`` with bit ``k`` moved to bit ``4k``, one byte at a time."""
    out, shift = 0, 0
    while chunk:
        out |= _SPREAD[chunk & 255] << shift
        chunk >>= 8
        shift += 32
    return out


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
        """``base^(exponent mod q) mod p``, for every base.

        The exponent is reduced mod ``q`` whatever the base.  For a member
        of the order-``q`` subgroup that is ``base^exponent``.  Any other
        base (``0``, ``p - 1``, a non-residue) has order 1, 2 or ``2q``,
        so the result is ``base^exponent`` only when ``0 <= exponent < q``:
        ``power(p - 1, q) == 1``, not ``p - 1``.  :meth:`comb_power` keeps
        the same contract.
        """
        return pow(base, exponent % self.q, self.p)

    def comb(self, base: int) -> Tuple[int, ...]:
        """The Lim–Lee comb of ``base``, the table :meth:`comb_power` reads.

        The exponent is cut into 4 rows of ``w = ceil(bits(q) / 4)`` bits
        (64 at TOY).  ``table[j]`` is the product of ``base^(2^(w*i))``
        over the bits ``i`` set in ``j``, so ``table[0] = 1`` and
        ``table[1] = base mod p``.  Building it costs three ``w``-bit
        ``pow``s and 11 multiplications; it holds 16 integers (~1.1 KB at
        TOY, where :meth:`exp`'s table is ~66 KB), small enough to keep one
        per public key.
        """
        p, width = self.p, self._comb_width()
        rows = [base % p]
        for _ in range(3):
            rows.append(pow(rows[-1], 1 << width, p))
        table = [1]
        for row in rows:
            table += [entry * row % p for entry in table]
        return tuple(table)

    def comb_power(self, table: Tuple[int, ...], exponent: int) -> int:
        """``power(base, exponent)`` from ``base``'s :meth:`comb`.

        Column ``k`` of the four rows is the 4-bit index ``sum(bit k of row
        i << i)``; one square-and-multiply by ``table[index]`` per column
        gives ``w`` squarings and at most ``w`` multiplications (~124
        mulmods at TOY against ~380 for ``pow``).  ``table[0] = 1``, so a
        zero column multiplies by one instead of branching.
        """
        e = exponent % self.q
        p, width = self.p, self._comb_width()
        mask = (1 << width) - 1
        columns = (_spread(e & mask) | _spread(e >> width & mask) << 1
                   | _spread(e >> 2 * width & mask) << 2
                   | _spread(e >> 3 * width) << 3)
        result = 1
        for pair in columns.to_bytes((width + 1) // 2, "big"):
            result = result * result * table[pair >> 4] % p
            result = result * result * table[pair & 15] % p
        return result

    def _comb_width(self) -> int:
        """``w``: the bits per row of a :meth:`comb`."""
        return (self.q.bit_length() + 3) // 4

    def exp(self, exponent: int) -> int:
        """``g^exponent mod p``, one multiplication per nonzero 4-bit digit.

        ``g`` is the base of every keygen, signature and proof, so its
        powers ``g^(d * 16^i)`` are tabulated once per group (16 entries
        per digit of ``q``: ~1k integers, ~66 KB at 256 bits) and an
        exponentiation is the product of one entry per digit — the same
        value as ``pow(g, exponent % q, p)`` at a quarter of the cost.
        That table per public key would cost 66 KB per user, so a public
        key's base gets the 16-entry :meth:`comb` instead, about half as
        fast as this and a fiftieth of the memory.
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
