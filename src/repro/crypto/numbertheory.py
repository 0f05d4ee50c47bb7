"""Number-theoretic primitives underpinning the crypto substrate.

Everything here is implemented from scratch on Python integers: primality
testing (deterministic small-prime sieve + Miller–Rabin), random prime
generation, modular inverses (the built-in ``pow(a, -1, m)``), the extended
Euclidean algorithm, Jacobi symbols and modular square roots
(Tonelli–Shanks, with the fast ``p % 4 == 3`` path used heavily by the
pairing code).

All random choices flow through an injected :class:`random.Random` so callers
(and tests) can be fully deterministic.
"""

from __future__ import annotations

import random as _random
from typing import List, Optional, Sequence, Tuple

from repro.exceptions import CryptoError

#: Small primes used both for trial division and for quick sieving during
#: prime generation.
SMALL_PRIMES: Tuple[int, ...] = (
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61,
    67, 71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113, 127, 131, 137,
    139, 149, 151, 157, 163, 167, 173, 179, 181, 191, 193, 197, 199, 211,
    223, 227, 229, 233, 239, 241, 251, 257, 263, 269, 271, 277, 281, 283,
    293, 307, 311, 313, 317, 331, 337, 347, 349,
)

_DEFAULT_RNG = _random.Random(0x5EED)


def egcd(a: int, b: int) -> Tuple[int, int, int]:
    """Extended Euclidean algorithm.

    Returns ``(g, x, y)`` with ``g = gcd(a, b)`` and ``a*x + b*y == g``.
    """
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    return old_r, old_s, old_t


def modinv(a: int, m: int) -> int:
    """Modular inverse of ``a`` modulo ``m``.

    Raises :class:`CryptoError` when the inverse does not exist.
    """
    try:
        return pow(a, -1, m)
    except ValueError:
        raise CryptoError(f"{a} has no inverse modulo {m}") from None


def is_probable_prime(n: int, rounds: int = 40,
                      rng: Optional[_random.Random] = None) -> bool:
    """Miller–Rabin primality test with a small-prime pre-filter.

    ``rounds`` Miller–Rabin witnesses give a false-positive probability of at
    most ``4**-rounds`` for adversarially chosen composites.
    """
    if n < 2:
        return False
    for p in SMALL_PRIMES:
        if n % p == 0:
            return n == p
    rng = rng or _DEFAULT_RNG
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for _ in range(rounds):
        a = rng.randrange(2, n - 1)
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def generate_prime(bits: int, rng: Optional[_random.Random] = None) -> int:
    """Generate a random prime of exactly ``bits`` bits."""
    if bits < 2:
        raise CryptoError("primes need at least 2 bits")
    rng = rng or _DEFAULT_RNG
    while True:
        candidate = rng.getrandbits(bits) | (1 << (bits - 1)) | 1
        if is_probable_prime(candidate, rng=rng):
            return candidate


def jacobi(a: int, n: int) -> int:
    """Jacobi symbol ``(a/n)`` for odd ``n > 0``."""
    if n <= 0 or n % 2 == 0:
        raise CryptoError("Jacobi symbol requires positive odd n")
    a %= n
    result = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def is_quadratic_residue(a: int, p: int) -> bool:
    """Whether ``a`` is a nonzero square modulo the odd prime ``p``."""
    a %= p
    if a == 0:
        return False
    return pow(a, (p - 1) // 2, p) == 1


def sqrt_mod(a: int, p: int) -> int:
    """A square root of ``a`` modulo the odd prime ``p``.

    Uses the fast exponentiation path when ``p % 4 == 3`` (the case for all
    pairing parameter sets) and Tonelli–Shanks otherwise.  Raises
    :class:`CryptoError` when ``a`` is not a quadratic residue.
    """
    a %= p
    if a == 0:
        return 0
    if not is_quadratic_residue(a, p):
        raise CryptoError(f"{a} is not a quadratic residue mod p")
    if p % 4 == 3:
        return pow(a, (p + 1) // 4, p)
    # Tonelli–Shanks for p % 4 == 1.
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while jacobi(z, p) != -1:
        z += 1
    m = s
    c = pow(z, q, p)
    t = pow(a, q, p)
    r = pow(a, (q + 1) // 2, p)
    while t != 1:
        t2 = t
        i = 0
        for i in range(1, m):
            t2 = t2 * t2 % p
            if t2 == 1:
                break
        b = pow(c, 1 << (m - i - 1), p)
        m = i
        c = b * b % p
        t = t * c % p
        r = r * b % p
    return r


def lagrange_coefficient(i: int, indices: Sequence[int], x: int, q: int) -> int:
    """Lagrange basis polynomial Δ_{i,S}(x) evaluated modulo prime ``q``.

    Used by the ABE secret-sharing reconstruction and any threshold scheme:
    ``sum_i share_i * lagrange_coefficient(i, S, 0, q) == secret``.
    """
    num, den = 1, 1
    for j in indices:
        if j == i:
            continue
        num = num * ((x - j) % q) % q
        den = den * ((i - j) % q) % q
    return num * modinv(den, q) % q


def poly_eval(coeffs: Sequence[int], x: int, q: int) -> int:
    """Evaluate a polynomial (coefficients low-to-high degree) mod ``q``."""
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * x + c) % q
    return acc


def random_polynomial(degree: int, constant: int, q: int,
                      rng: Optional[_random.Random] = None) -> List[int]:
    """Random degree-``degree`` polynomial over Z_q with fixed constant term.

    This is Shamir secret sharing's dealer step; the secret is ``constant``.
    """
    rng = rng or _DEFAULT_RNG
    return [constant % q] + [rng.randrange(q) for _ in range(degree)]


def int_to_bytes(n: int, length: Optional[int] = None) -> bytes:
    """Big-endian byte encoding of a non-negative integer."""
    if n < 0:
        raise CryptoError("cannot encode negative integers")
    if length is None:
        length = max(1, (n.bit_length() + 7) // 8)
    return n.to_bytes(length, "big")


def bytes_to_int(data: bytes) -> int:
    """Big-endian integer decoding of a byte string."""
    return int.from_bytes(data, "big")
