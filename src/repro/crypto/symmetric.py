"""Symmetric encryption: modes of operation and authenticated encryption.

This is the "symmetric key encryption" row of Table I (Section III-B of the
paper): the fast primitive that the hybrid schemes (Section III-F) wrap with
public-key machinery.  Provided here:

* AES-CTR over :class:`repro.crypto.aes.AES`, the FIPS-197 reference for
  Table I's cell, which no scheme runs (it is ~50x slower),
* two encrypt-then-MAC AEADs over one SHA-256-CTR keystream, run through
  ``hashlib`` (:func:`_sha256_ctr`): :class:`AuthenticatedCipher` under
  every §III scheme and KEM, :class:`StreamCipher` under the DOSN facade.

All nonces/IVs are caller-supplied or drawn from an injected RNG so the
whole library stays deterministic under a fixed seed.
"""

from __future__ import annotations

import hashlib
import random as _random
from typing import Optional

from repro.crypto.aes import AES
from repro.crypto.hashing import hkdf, hmac_sha256, hmac_verify
from repro.exceptions import CryptoError, DecryptionError, InvalidKeyError

_DEFAULT_RNG = _random.Random(0xC1F3)


def random_key(length: int = 32, rng: Optional[_random.Random] = None) -> bytes:
    """A fresh random key of ``length`` bytes."""
    rng = rng or _DEFAULT_RNG
    return bytes(rng.getrandbits(8) for _ in range(length))


def _xor(a: bytes, b: bytes) -> bytes:
    """Byte-wise XOR over the shorter length, as one big-integer XOR."""
    n = min(len(a), len(b))
    return (int.from_bytes(a[:n], "big")
            ^ int.from_bytes(b[:n], "big")).to_bytes(n, "big")


def aes_ctr(key: bytes, nonce: bytes, data: bytes) -> bytes:
    """AES-CTR keystream XOR (encryption and decryption are identical).

    ``nonce`` is 8 bytes; the remaining 8 bytes of the counter block are a
    big-endian block counter.
    """
    if len(nonce) != 8:
        raise CryptoError("CTR nonce must be 8 bytes")
    cipher = AES(key)
    out = bytearray()
    for counter in range((len(data) + 15) // 16):
        block = cipher.encrypt_block(nonce + counter.to_bytes(8, "big"))
        chunk = data[16 * counter:16 * counter + 16]
        out += _xor(chunk, block[:len(chunk)])
    return bytes(out)


def _sha256_ctr(key: bytes, nonce: bytes, length: int) -> bytes:
    """``length`` bytes of a PRF in counter mode, the shape of :func:`aes_ctr`:
    block ``i`` is ``SHA256(key || nonce || i)``, ``i`` 8 bytes big-endian."""
    prefix = key + nonce
    return b"".join([hashlib.sha256(prefix + i.to_bytes(8, "big")).digest()
                     for i in range((length + 31) // 32)])[:length]


class StreamCipher:
    """SHA-256-CTR + HMAC-SHA256 with a 16-byte nonce and no associated data.

    The DOSN facade's bulk cipher; output is ``nonce(16) || ciphertext ||
    tag(32)``.
    """

    def __init__(self, key: bytes) -> None:
        if len(key) < 16:
            raise InvalidKeyError("stream cipher keys must be >= 16 bytes")
        self._enc_key = hkdf(key, 32, info=b"repro/stream/enc")
        self._mac_key = hkdf(key, 32, info=b"repro/stream/mac")

    def encrypt(self, plaintext: bytes,
                rng: Optional[_random.Random] = None) -> bytes:
        """Encrypt-then-MAC; output is ``nonce || ciphertext || tag``."""
        rng = rng or _DEFAULT_RNG
        nonce = bytes(rng.getrandbits(8) for _ in range(16))
        body = _xor(plaintext, _sha256_ctr(self._enc_key, nonce,
                                           len(plaintext)))
        tag = hmac_sha256(self._mac_key, nonce + body)
        return nonce + body + tag

    def decrypt(self, blob: bytes) -> bytes:
        """Verify the MAC then strip nonce/tag and decrypt."""
        if len(blob) < 48:
            raise DecryptionError("ciphertext too short")
        nonce, body, tag = blob[:16], blob[16:-32], blob[-32:]
        if not hmac_verify(self._mac_key, nonce + body, tag):
            raise DecryptionError("authentication tag mismatch")
        return _xor(body, _sha256_ctr(self._enc_key, nonce, len(body)))


class AuthenticatedCipher:
    """SHA-256-CTR + HMAC-SHA256 encrypt-then-MAC AEAD.

    The single input key is split into independent encryption and MAC keys
    with HKDF; output is ``nonce(8) || ciphertext || tag(32)``, the tag over
    ``associated_data || nonce || ciphertext``.  Every §III scheme runs it.
    """

    def __init__(self, key: bytes) -> None:
        if len(key) < 16:
            raise InvalidKeyError("AEAD keys must be >= 16 bytes")
        self._enc_key = hkdf(key, 32, info=b"repro/aead/enc")
        self._mac_key = hkdf(key, 32, info=b"repro/aead/mac")

    def encrypt(self, plaintext: bytes, associated_data: bytes = b"",
                rng: Optional[_random.Random] = None) -> bytes:
        """Encrypt and authenticate ``plaintext`` (and bind ``associated_data``)."""
        rng = rng or _DEFAULT_RNG
        nonce = bytes(rng.getrandbits(8) for _ in range(8))
        body = _xor(plaintext, _sha256_ctr(self._enc_key, nonce,
                                           len(plaintext)))
        tag = hmac_sha256(self._mac_key, associated_data + nonce + body)
        return nonce + body + tag

    def decrypt(self, blob: bytes, associated_data: bytes = b"") -> bytes:
        """Verify then decrypt; raises :class:`DecryptionError` on any tamper."""
        if len(blob) < 40:
            raise DecryptionError("ciphertext too short")
        nonce, body, tag = blob[:8], blob[8:-32], blob[-32:]
        if not hmac_verify(self._mac_key,
                           associated_data + nonce + body, tag):
            raise DecryptionError("authentication tag mismatch")
        return _xor(body, _sha256_ctr(self._enc_key, nonce, len(body)))
