"""Symmetric encryption: modes of operation and authenticated encryption.

This is the "symmetric key encryption" row of Table I (Section III-B of the
paper): the fast primitive that the hybrid schemes (Section III-F) wrap with
public-key machinery.  Provided here:

* PKCS#7 padding,
* AES-CBC and AES-CTR over :class:`repro.crypto.aes.AES`, the FIPS-197
  reference for Table I's cell, which no scheme runs (it is ~50x slower),
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


def pkcs7_pad(data: bytes, block_size: int = 16) -> bytes:
    """PKCS#7 padding up to a multiple of ``block_size``."""
    if not 1 <= block_size <= 255:
        raise CryptoError("block size must be in [1, 255]")
    pad_len = block_size - len(data) % block_size
    return data + bytes([pad_len]) * pad_len


def pkcs7_unpad(data: bytes, block_size: int = 16) -> bytes:
    """Remove PKCS#7 padding, validating every pad byte."""
    if not data or len(data) % block_size:
        raise DecryptionError("ciphertext length is not a padded multiple")
    pad_len = data[-1]
    if not 1 <= pad_len <= block_size:
        raise DecryptionError("invalid padding length")
    if data[-pad_len:] != bytes([pad_len]) * pad_len:
        raise DecryptionError("invalid padding bytes")
    return data[:-pad_len]


def _xor(a: bytes, b: bytes) -> bytes:
    """Byte-wise XOR over the shorter length, as one big-integer XOR."""
    n = min(len(a), len(b))
    return (int.from_bytes(a[:n], "big")
            ^ int.from_bytes(b[:n], "big")).to_bytes(n, "big")


def aes_cbc_encrypt(key: bytes, iv: bytes, plaintext: bytes) -> bytes:
    """AES-CBC with PKCS#7 padding; returns raw ciphertext (no IV prefix)."""
    if len(iv) != 16:
        raise CryptoError("CBC IV must be 16 bytes")
    cipher = AES(key)
    padded = pkcs7_pad(plaintext)
    out = bytearray()
    prev = iv
    for i in range(0, len(padded), 16):
        block = cipher.encrypt_block(_xor(padded[i:i + 16], prev))
        out += block
        prev = block
    return bytes(out)


def aes_cbc_decrypt(key: bytes, iv: bytes, ciphertext: bytes) -> bytes:
    """Inverse of :func:`aes_cbc_encrypt`."""
    if len(ciphertext) % 16:
        raise DecryptionError("CBC ciphertext must be a multiple of 16 bytes")
    cipher = AES(key)
    out = bytearray()
    prev = iv
    for i in range(0, len(ciphertext), 16):
        block = ciphertext[i:i + 16]
        out += _xor(cipher.decrypt_block(block), prev)
        prev = block
    return pkcs7_unpad(bytes(out))


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
