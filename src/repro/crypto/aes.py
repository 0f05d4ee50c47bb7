"""AES block cipher (FIPS 197) implemented from scratch.

Supports 128/192/256-bit keys.  The S-box and the forward T-tables are
derived at import time from the finite-field definition rather than pasted
as magic tables, so the implementation is auditable end-to-end; test
vectors from FIPS 197 Appendix C pin the behaviour.

This is the raw block primitive; modes of operation and authenticated
encryption live in :mod:`repro.crypto.symmetric`.
"""

from __future__ import annotations

import struct
from typing import Tuple

from repro.exceptions import CryptoError, InvalidKeyError


def _gf_mul(a: int, b: int) -> int:
    """Multiplication in GF(2^8) with the AES polynomial x^8+x^4+x^3+x+1."""
    result = 0
    for _ in range(8):
        if b & 1:
            result ^= a
        high = a & 0x80
        a = (a << 1) & 0xFF
        if high:
            a ^= 0x1B
        b >>= 1
    return result


def _build_sbox() -> tuple:
    """Derive the AES S-box from inversion in GF(2^8) + affine transform."""
    # Build inverses via exponentiation tables on the generator 3.
    exp = [0] * 256
    log = [0] * 256
    x = 1
    for i in range(255):
        exp[i] = x
        log[x] = i
        x = _gf_mul(x, 3)
    exp[255] = exp[0]

    def inverse(a: int) -> int:
        if a == 0:
            return 0
        return exp[255 - log[a]]

    sbox = [0] * 256
    for value in range(256):
        inv = inverse(value)
        s = inv
        for shift in (1, 2, 3, 4):
            s ^= ((inv << shift) | (inv >> (8 - shift))) & 0xFF
        sbox[value] = s ^ 0x63
    return tuple(sbox)


_SBOX = _build_sbox()
_RCON = (0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1B, 0x36,
         0x6C, 0xD8, 0xAB, 0x4D)

# Forward T-tables: SubBytes, ShiftRows and MixColumns of one state byte as
# one 32-bit column word; table ``i`` serves the byte in row ``i``.
_T0 = tuple(_gf_mul(s, 2) << 24 | s << 16 | s << 8 | _gf_mul(s, 3)
            for s in _SBOX)
_T1, _T2, _T3 = (tuple((w >> r | w << 32 - r) & 0xFFFFFFFF for w in _T0)
                 for r in (8, 16, 24))


def _key_schedule(key: bytes, nk: int, rounds: int) -> Tuple[int, ...]:
    """FIPS 197 KeyExpansion on big-endian 32-bit words: ``4 * (rounds +
    1)`` round-key words, four per round."""
    S = _SBOX
    words = list(struct.unpack(f">{nk}I", key))
    for i in range(nk, 4 * (rounds + 1)):
        t = words[-1]
        if i % nk == 0:  # RotWord, SubWord, Rcon
            t = (S[t >> 16 & 255] << 24 | S[t >> 8 & 255] << 16
                 | S[t & 255] << 8 | S[t >> 24]) ^ _RCON[i // nk - 1] << 24
        elif nk > 6 and i % nk == 4:  # SubWord
            t = (S[t >> 24] << 24 | S[t >> 16 & 255] << 16
                 | S[t >> 8 & 255] << 8 | S[t & 255])
        words.append(words[i - nk] ^ t)
    return tuple(words)


class AES:
    """The AES block cipher: 16-byte blocks, 16/24/32-byte keys."""

    block_size = 16

    def __init__(self, key: bytes) -> None:
        if len(key) not in (16, 24, 32):
            raise InvalidKeyError("AES keys must be 16, 24 or 32 bytes")
        nk = len(key) // 4
        self._rounds = {4: 10, 6: 12, 8: 14}[nk]
        self._enc_words = _key_schedule(key, nk, self._rounds)

    def encrypt_block(self, block: bytes) -> bytes:
        """Encrypt exactly one 16-byte block."""
        if len(block) != 16:
            raise CryptoError("AES blocks are exactly 16 bytes")
        rk = self._enc_words
        s0, s1, s2, s3 = map(int.__xor__, struct.unpack(">4I", block), rk)
        for i in range(4, 4 * self._rounds, 4):
            s0, s1, s2, s3 = (
                _T0[s0 >> 24] ^ _T1[s1 >> 16 & 255] ^ _T2[s2 >> 8 & 255]
                ^ _T3[s3 & 255] ^ rk[i],
                _T0[s1 >> 24] ^ _T1[s2 >> 16 & 255] ^ _T2[s3 >> 8 & 255]
                ^ _T3[s0 & 255] ^ rk[i + 1],
                _T0[s2 >> 24] ^ _T1[s3 >> 16 & 255] ^ _T2[s0 >> 8 & 255]
                ^ _T3[s1 & 255] ^ rk[i + 2],
                _T0[s3 >> 24] ^ _T1[s0 >> 16 & 255] ^ _T2[s1 >> 8 & 255]
                ^ _T3[s2 & 255] ^ rk[i + 3])
        # Last round: SubBytes and ShiftRows only.
        S = _SBOX
        return struct.pack(
            ">4I",
            (S[s0 >> 24] << 24 | S[s1 >> 16 & 255] << 16
             | S[s2 >> 8 & 255] << 8 | S[s3 & 255]) ^ rk[-4],
            (S[s1 >> 24] << 24 | S[s2 >> 16 & 255] << 16
             | S[s3 >> 8 & 255] << 8 | S[s0 & 255]) ^ rk[-3],
            (S[s2 >> 24] << 24 | S[s3 >> 16 & 255] << 16
             | S[s0 >> 8 & 255] << 8 | S[s1 & 255]) ^ rk[-2],
            (S[s3 >> 24] << 24 | S[s0 >> 16 & 255] << 16
             | S[s1 >> 8 & 255] << 8 | S[s2 & 255]) ^ rk[-1])
