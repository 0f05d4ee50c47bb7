"""Reference implementations: the slow code the fast paths replaced.

``repro.crypto`` computes modular inverses with ``pow(a, -1, m)``, G1
scalar multiplication and the Miller loop in Jacobian coordinates, and the
AES forward cipher on T-tables.  What they replaced lives here, verbatim,
as the oracle: every fast path must return *exactly* what this code
returns (``test_fast_paths.py``), so every ciphertext, header and digest
stays byte-identical.  Nothing under ``src/`` may import this module.
"""

from typing import List

from repro.crypto import numbertheory as nt
from repro.crypto.aes import _SBOX, AES, _gf_mul
from repro.crypto.pairing import (Fp2, G1Element, GTElement, PairingGroup,
                                  _Point, _point_add, _point_neg)
from repro.exceptions import CryptoError

# -- numbertheory -----------------------------------------------------------


def modinv(a: int, m: int) -> int:
    """Modular inverse via the extended Euclidean algorithm."""
    g, x, _ = nt.egcd(a % m, m)
    if g != 1:
        raise CryptoError(f"{a} has no inverse modulo {m} (gcd={g})")
    return x % m


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


def pair(group: PairingGroup, P: G1Element, Q: G1Element) -> GTElement:
    """``PairingGroup.pair`` over the affine Miller loop."""
    if P.is_identity() or Q.is_identity():
        return group.one_gt()
    xq, y_q = Q.point
    f = miller(group, P.point, (-xq) % group.p, y_q)
    eased = f.conjugate() * f.inverse()
    return GTElement(group, eased.pow((group.p + 1) // group.q))


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


def encrypt_block(cipher: AES, block: bytes) -> bytes:
    """FIPS-197 forward rounds on a 16-byte list, one step at a time."""
    state = list(block)
    cipher._add_round_key(state, cipher._round_keys[0])
    for rnd in range(1, cipher._rounds):
        cipher._sub_bytes(state, _SBOX)
        state = _shift_rows(state)
        state = _mix_columns(state)
        cipher._add_round_key(state, cipher._round_keys[rnd])
    cipher._sub_bytes(state, _SBOX)
    state = _shift_rows(state)
    cipher._add_round_key(state, cipher._round_keys[cipher._rounds])
    return bytes(state)
