"""RSA: key generation, OAEP-style encryption, hash-then-sign signatures.

RSA is the concrete public-key scheme behind several surveyed systems
(flyByNight's client-side crypto, PeerSoN's friend messaging — Section III-C
of the paper) and the base of Chaum blind signatures used for secure social
search (Section V-A, Hummingbird).

Padding: a simplified OAEP (mask-generation with HKDF, fixed 32-byte seed)
for encryption and deterministic salted hashing for signatures.  CRT is used
to speed up private-key operations.
"""

from __future__ import annotations

import random as _random
from dataclasses import dataclass
from typing import Optional

from repro.crypto.hashing import digest, hkdf
from repro.crypto.numbertheory import (bytes_to_int, generate_prime,
                                       int_to_bytes, modinv)
from repro.exceptions import CryptoError, DecryptionError, InvalidKeyError

_DEFAULT_RNG = _random.Random(0x25A)

_OAEP_SEED_LEN = 16
_OAEP_HASH_LEN = 16


@dataclass(frozen=True)
class RSAPublicKey:
    """An RSA public key ``(n, e)``."""

    n: int
    e: int

    @property
    def byte_length(self) -> int:
        """Modulus size in bytes."""
        return (self.n.bit_length() + 7) // 8

    def to_bytes(self) -> bytes:
        """Canonical serialization (for fingerprints and certificates)."""
        return int_to_bytes(self.n) + b"|" + int_to_bytes(self.e)


@dataclass(frozen=True)
class RSAPrivateKey:
    """An RSA private key with CRT components."""

    n: int
    e: int
    d: int
    p: int
    q: int

    @property
    def public_key(self) -> RSAPublicKey:
        """The matching public key."""
        return RSAPublicKey(self.n, self.e)

    def _crt_power(self, c: int) -> int:
        """``c^d mod n`` via the Chinese Remainder Theorem (~4x faster)."""
        dp = self.d % (self.p - 1)
        dq = self.d % (self.q - 1)
        m1 = pow(c % self.p, dp, self.p)
        m2 = pow(c % self.q, dq, self.q)
        h = (m1 - m2) * modinv(self.q, self.p) % self.p
        return m2 + h * self.q


def generate_keypair(bits: int = 1024, e: int = 65537,
                     rng: Optional[_random.Random] = None) -> RSAPrivateKey:
    """Generate an RSA keypair with a ``bits``-bit modulus."""
    if bits < 128:
        raise InvalidKeyError("modulus too small even for toy use")
    rng = rng or _DEFAULT_RNG
    while True:
        p = generate_prime(bits // 2, rng=rng)
        q = generate_prime(bits - bits // 2, rng=rng)
        if p == q:
            continue
        n = p * q
        phi = (p - 1) * (q - 1)
        if phi % e == 0:
            continue
        d = modinv(e, phi)
        if n.bit_length() >= bits:
            return RSAPrivateKey(n=n, e=e, d=d, p=p, q=q)


def _mgf(seed: bytes, length: int) -> bytes:
    """Mask generation function (HKDF-based MGF1 stand-in)."""
    return hkdf(seed, length, info=b"repro/rsa/mgf")


def max_plaintext_length(pub: RSAPublicKey) -> int:
    """Longest message OAEP-encryptable under ``pub``."""
    return pub.byte_length - _OAEP_SEED_LEN - _OAEP_HASH_LEN - 2


def encrypt(pub: RSAPublicKey, message: bytes,
            rng: Optional[_random.Random] = None) -> bytes:
    """OAEP-style RSA encryption of a short message.

    Layout of the encoded block (before the RSA power):
    ``00 || masked_seed(32) || masked_db`` where
    ``db = H(label) || 00... || 01 || message``.
    """
    rng = rng or _DEFAULT_RNG
    k = pub.byte_length
    if len(message) > max_plaintext_length(pub):
        raise CryptoError(
            f"message too long for modulus ({len(message)} bytes)")
    lhash = digest(b"repro/rsa/label")[:_OAEP_HASH_LEN]
    # db spans k - 1 - seed_len bytes: lhash || zero pad || 0x01 || message.
    pad = b"\x00" * (k - 1 - _OAEP_SEED_LEN - _OAEP_HASH_LEN
                     - 1 - len(message))
    db = lhash + pad + b"\x01" + message
    seed = bytes(rng.getrandbits(8) for _ in range(_OAEP_SEED_LEN))
    masked_db = bytes(a ^ b for a, b in zip(db, _mgf(seed, len(db))))
    masked_seed = bytes(a ^ b for a, b in
                        zip(seed, _mgf(masked_db, _OAEP_SEED_LEN)))
    encoded = b"\x00" + masked_seed + masked_db
    c = pow(bytes_to_int(encoded), pub.e, pub.n)
    return int_to_bytes(c, k)


def decrypt(priv: RSAPrivateKey, ciphertext: bytes) -> bytes:
    """Invert :func:`encrypt`; raises :class:`DecryptionError` on tamper."""
    k = priv.public_key.byte_length
    if len(ciphertext) != k:
        raise DecryptionError("ciphertext has wrong length")
    m = priv._crt_power(bytes_to_int(ciphertext))
    encoded = int_to_bytes(m, k)
    if encoded[0] != 0:
        raise DecryptionError("OAEP decoding failed")
    masked_seed = encoded[1:1 + _OAEP_SEED_LEN]
    masked_db = encoded[1 + _OAEP_SEED_LEN:]
    seed = bytes(a ^ b for a, b in
                 zip(masked_seed, _mgf(masked_db, _OAEP_SEED_LEN)))
    db = bytes(a ^ b for a, b in zip(masked_db, _mgf(seed, len(masked_db))))
    if db[:_OAEP_HASH_LEN] != digest(b"repro/rsa/label")[:_OAEP_HASH_LEN]:
        raise DecryptionError("OAEP label mismatch")
    rest = db[_OAEP_HASH_LEN:]
    sep = rest.find(b"\x01")
    if sep < 0 or any(rest[:sep]):
        raise DecryptionError("OAEP padding structure invalid")
    return rest[sep + 1:]


def _encode_digest_for_signing(message: bytes, n: int) -> int:
    """Full-domain-hash encoding of a message for signing mod ``n``."""
    need = (n.bit_length() - 1 + 7) // 8
    out = b""
    counter = 0
    while len(out) < need:
        out += digest(b"repro/rsa/fdh" + counter.to_bytes(4, "big") + message)
        counter += 1
    return bytes_to_int(out[:need]) % n


def sign(priv: RSAPrivateKey, message: bytes) -> bytes:
    """Full-domain-hash RSA signature."""
    h = _encode_digest_for_signing(message, priv.n)
    return int_to_bytes(priv._crt_power(h), priv.public_key.byte_length)


def verify(pub: RSAPublicKey, message: bytes, signature: bytes) -> bool:
    """Check an RSA signature; never raises for a merely-invalid signature."""
    if len(signature) != pub.byte_length:
        return False
    s = bytes_to_int(signature)
    if s >= pub.n:
        return False
    return pow(s, pub.e, pub.n) == _encode_digest_for_signing(message, pub.n)

