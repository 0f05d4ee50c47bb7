"""Hash-based utilities: fast digests, HMAC, HKDF and hash-to-field maps.

These are the workhorse primitives behind the integrity layer (Section IV of
the paper: hash chains, history trees) and the key-derivation steps inside
the hybrid encryption schemes (Section III-F).  The from-scratch SHA-256
lives in :mod:`repro.crypto.sha256`; here we use :mod:`hashlib` for speed on
hot paths — the test suite proves the two agree.
"""

from __future__ import annotations

import hashlib
import hmac as _hmac
from typing import Iterable

from repro.exceptions import CryptoError


def digest(data: bytes) -> bytes:
    """SHA-256 digest (32 bytes)."""
    return hashlib.sha256(data).digest()


def hexdigest(data: bytes) -> str:
    """SHA-256 digest as a hex string."""
    return hashlib.sha256(data).hexdigest()


def digest_many(parts: Iterable[bytes]) -> bytes:
    """Digest a sequence of byte strings with unambiguous length framing.

    Each part is prefixed with its 8-byte big-endian length, so
    ``digest_many([a, b]) != digest_many([a + b])`` — this prevents the
    concatenation ambiguities that break naive hash-chain constructions.
    """
    h = hashlib.sha256()
    for part in parts:
        h.update(len(part).to_bytes(8, "big"))
        h.update(part)
    return h.digest()


def hmac_sha256(key: bytes, message: bytes) -> bytes:
    """HMAC-SHA256 (RFC 2104)."""
    return _hmac.new(key, message, hashlib.sha256).digest()


def hmac_verify(key: bytes, message: bytes, tag: bytes) -> bool:
    """Constant-time HMAC verification."""
    return _hmac.compare_digest(hmac_sha256(key, message), tag)


def hkdf(ikm: bytes, length: int, salt: bytes = b"", info: bytes = b"") -> bytes:
    """HKDF-SHA256 (RFC 5869) extract-then-expand key derivation."""
    if length > 255 * 32:
        raise CryptoError("HKDF output too long for SHA-256")
    prk = hmac_sha256(salt or b"\x00" * 32, ikm)
    okm = b""
    block = b""
    counter = 1
    while len(okm) < length:
        block = hmac_sha256(prk, block + info + bytes([counter]))
        okm += block
        counter += 1
    return okm[:length]


def hash_to_int(data: bytes, modulus: int, domain: bytes = b"") -> int:
    """Hash arbitrary bytes to an integer in ``[0, modulus)``.

    Expands the digest with counter blocks until enough bits are available,
    then reduces; the extra 128 bits make the reduction bias negligible.
    The ``domain`` tag separates uses (e.g. ABE attribute hashing vs. IBBE
    identity hashing) so they behave as independent random oracles.
    """
    if modulus < 2:
        raise CryptoError("modulus must be at least 2")
    need = modulus.bit_length() + 128
    out = b""
    counter = 0
    while len(out) * 8 < need:
        out += hashlib.sha256(
            domain + counter.to_bytes(4, "big") + data).digest()
        counter += 1
    return int.from_bytes(out, "big") % modulus
