"""Reference implementations: the slow code the fast paths replaced.

``repro.crypto`` computes modular inverses with ``pow(a, -1, m)``, G1
scalar multiplication and the Miller loop in Jacobian coordinates, powers
of the generator from a fixed-base table, IBBE's ``h^{f(gamma)}`` as one
multi-exponentiation, products of pairings with one final exponentiation,
``F_p^2`` powers on plain ints, the AES key schedule on 32-bit words, the
AES forward cipher on T-tables, Schnorr verification with ``y^-1``
derived once per key, and powers of a public key's base (``y^-1`` in a
Schnorr verify, ``h`` in an ElGamal encryption) from a per-key Lim–Lee
comb instead of ``pow``.  What they replaced lives here,
verbatim, as the oracle: every fast path must return *exactly* what this
code returns (``test_fast_paths.py``), so every ciphertext, header and
digest stays byte-identical.  Nothing under ``src/`` may import this module
(``tests/test_layering.py`` enforces it).
"""

from typing import List, Sequence

from repro.crypto import numbertheory as nt
from repro.crypto.aes import _RCON, _SBOX, _gf_mul
from repro.crypto.elgamal import ElGamalPublicKey
from repro.crypto.groups import SchnorrGroup
from repro.crypto.hashing import hkdf
from repro.crypto.pairing import (Fp2, G1Element, GTElement, PairingGroup,
                                  _Point, _point_add, _point_neg)
from repro.crypto.signatures import SchnorrPublicKey, _challenge
from repro.crypto.symmetric import AuthenticatedCipher
from repro.exceptions import CryptoError

# -- numbertheory -----------------------------------------------------------


def modinv(a: int, m: int) -> int:
    """Modular inverse via the extended Euclidean algorithm."""
    g, x, _ = nt.egcd(a % m, m)
    if g != 1:
        raise CryptoError(f"{a} has no inverse modulo {m} (gcd={g})")
    return x % m


# -- groups -------------------------------------------------------------------


def comb_power(group: SchnorrGroup, base: int, exponent: int) -> int:
    """``SchnorrGroup.comb_power(group.comb(base), exponent)``: one
    left-to-right ``pow`` of the exponent reduced mod ``q``."""
    return pow(base, exponent % group.q, group.p)


# -- ElGamal ------------------------------------------------------------------


def elgamal_encrypt_bytes(pub: ElGamalPublicKey, message: bytes, rng) -> bytes:
    """``elgamal.encrypt_bytes`` raising ``h`` to ``r`` with ``pow``."""
    group = pub.group
    r = group.random_scalar(rng)
    kem_element = group.element_from_int(rng.randrange(1, group.p))
    c1, c2 = (group.exp(r),
              group.mul(kem_element, pow(pub.h, r % group.q, group.p)))
    width = (group.p.bit_length() + 7) // 8
    key = hkdf(kem_element.to_bytes(width, "big"), 32,
               info=b"repro/elgamal/kem")
    blob = AuthenticatedCipher(key).encrypt(message, rng=rng)
    return (width.to_bytes(2, "big") + c1.to_bytes(width, "big")
            + c2.to_bytes(width, "big") + blob)


# -- signatures ---------------------------------------------------------------


def schnorr_verify(key: SchnorrPublicKey, message: bytes, signature) -> bool:
    """``SchnorrPublicKey.verify`` inverting ``y^e`` on every call."""
    group = key.group
    e, s = signature
    if not 0 <= e < group.q or not 0 <= s < group.q:
        return False
    commitment = group.mul(
        group.exp(s),
        group.inverse(group.power(key.y, e)))
    return _challenge(group, commitment, key.y, message) == e


# -- pairing ----------------------------------------------------------------


def point_mul(P: _Point, k: int, p: int) -> _Point:
    """Scalar multiplication by affine right-to-left double-and-add."""
    if k < 0:
        return point_mul(_point_neg(P, p), -k, p)
    result: _Point = None
    addend = P
    while k:
        if k & 1:
            result = _point_add(result, addend, p)
        addend = _point_add(addend, addend, p)
        k >>= 1
    return result


def miller(group: PairingGroup, P: _Point, xq: int, yq: int) -> Fp2:
    """The affine Miller loop: one inversion per slope, one per addition."""
    p = group.p
    f = Fp2(1, 0, p)
    T = P
    for bit in bin(group.q)[3:]:  # skip the leading 1 bit
        # Tangent line at T.
        f = f.square()
        if T is not None:
            x1, y1 = T
            if y1 == 0:
                T = None  # vertical tangent; line value in F_p, skipped
            else:
                lam = (3 * x1 * x1 + 1) * modinv(2 * y1, p) % p
                c0 = (-y1 - lam * (xq - x1)) % p
                f = f * Fp2(c0, yq, p)
                T = _point_add(T, T, p)
        if bit == "1" and P is not None:
            if T is None:
                T = P
            else:
                x1, y1 = T
                x2, y2 = P
                if x1 == x2:
                    T = _point_add(T, P, p)  # vertical line, skipped
                else:
                    lam = (y2 - y1) * modinv(x2 - x1, p) % p
                    c0 = (-y1 - lam * (xq - x1)) % p
                    f = f * Fp2(c0, yq, p)
                    T = _point_add(T, P, p)
    return f


def fp2_pow(x: Fp2, exponent: int) -> Fp2:
    """``Fp2.pow`` by square-and-multiply on ``Fp2`` objects."""
    if exponent < 0:
        return fp2_pow(x.inverse(), -exponent)
    result = Fp2(1, 0, x.p)
    base = x
    while exponent:
        if exponent & 1:
            result = result * base
        base = base.square()
        exponent >>= 1
    return result


def pair(group: PairingGroup, P: G1Element, Q: G1Element) -> GTElement:
    """``PairingGroup.pair`` over the affine Miller loop."""
    if P.is_identity() or Q.is_identity():
        return group.one_gt()
    xq, y_q = Q.point
    f = miller(group, P.point, (-xq) % group.p, y_q)
    eased = f.conjugate() * f.inverse()
    return GTElement(group, fp2_pow(eased, (group.p + 1) // group.q))


def pair_product(group: PairingGroup, numerator, denominator=()) -> GTElement:
    """``PairingGroup.pair_product``: one full pairing per pair, then GT
    products and quotients."""
    acc = group.one_gt()
    for P, Q in numerator:
        acc = acc * pair(group, P, Q)
    for P, Q in denominator:
        acc = acc / pair(group, P, Q)
    return acc


def multi_exp(group: PairingGroup, bases: Sequence[G1Element],
              exponents: Sequence[int]) -> G1Element:
    """``PairingGroup.multi_exp``: a separate affine exponentiation per
    base, multiplied together."""
    acc = None
    for base, exponent in zip(bases, exponents):
        acc = _point_add(acc, point_mul(base.point, exponent % group.q,
                                        group.p), group.p)
    return G1Element(group, acc)


def poly_in_h(group: PairingGroup, h_powers: Sequence[G1Element],
              coeffs: Sequence[int]) -> G1Element:
    """``IBBE._poly_in_h``: n + 1 separate exponentiations and n products."""
    acc = group.identity_g1()
    for power, coeff in zip(h_powers, coeffs):
        if coeff:
            acc = acc * (power ** coeff)
    return acc


# -- AES key schedule ---------------------------------------------------------


def expand_key(key: bytes) -> List[List[int]]:
    """KeyExpansion on 4-byte lists, grouped into per-round 16-byte keys."""
    nk = len(key) // 4
    rounds = {4: 10, 6: 12, 8: 14}[nk]
    words = [list(key[4 * i:4 * i + 4]) for i in range(nk)]
    for i in range(nk, 4 * (rounds + 1)):
        temp = list(words[i - 1])
        if i % nk == 0:
            temp = temp[1:] + temp[:1]
            temp = [_SBOX[b] for b in temp]
            temp[0] ^= _RCON[i // nk - 1]
        elif nk > 6 and i % nk == 4:
            temp = [_SBOX[b] for b in temp]
        words.append([a ^ b for a, b in zip(words[i - nk], temp)])
    # Group into per-round 16-byte keys (column-major state order).
    return [sum(words[4 * r:4 * r + 4], []) for r in range(rounds + 1)]


# -- AES forward cipher -------------------------------------------------------

_MUL2 = tuple(_gf_mul(x, 2) for x in range(256))
_MUL3 = tuple(_gf_mul(x, 3) for x in range(256))


def _shift_rows(s: List[int]) -> List[int]:
    return [
        s[0], s[5], s[10], s[15],
        s[4], s[9], s[14], s[3],
        s[8], s[13], s[2], s[7],
        s[12], s[1], s[6], s[11],
    ]


def _mix_columns(state: List[int]) -> List[int]:
    out = [0] * 16
    for c in range(4):
        a0, a1, a2, a3 = state[4 * c:4 * c + 4]
        out[4 * c + 0] = _MUL2[a0] ^ _MUL3[a1] ^ a2 ^ a3
        out[4 * c + 1] = a0 ^ _MUL2[a1] ^ _MUL3[a2] ^ a3
        out[4 * c + 2] = a0 ^ a1 ^ _MUL2[a2] ^ _MUL3[a3]
        out[4 * c + 3] = _MUL3[a0] ^ a1 ^ a2 ^ _MUL2[a3]
    return out


def _add_round_key(state: List[int], rk: List[int]) -> None:
    for i in range(16):
        state[i] ^= rk[i]


def _sub_bytes(state: List[int]) -> None:
    for i in range(16):
        state[i] = _SBOX[state[i]]


def encrypt_block(key: bytes, block: bytes) -> bytes:
    """FIPS-197 forward rounds on a 16-byte list, one step at a time, under
    the list-based key schedule."""
    round_keys = expand_key(key)
    rounds = len(round_keys) - 1
    state = list(block)
    _add_round_key(state, round_keys[0])
    for rnd in range(1, rounds):
        _sub_bytes(state)
        state = _shift_rows(state)
        state = _mix_columns(state)
        _add_round_key(state, round_keys[rnd])
    _sub_bytes(state)
    state = _shift_rows(state)
    _add_round_key(state, round_keys[rounds])
    return bytes(state)
