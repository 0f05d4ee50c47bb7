"""The key material a user holds in a scheme, and what that material opens.

Revocation is judged against a user who keeps every key they were ever
given (De Salve et al., DECENT).  A test snapshots :func:`held_keys` after
each step that can hand a user a key, keeps the union, and tries it on a
record taken straight from placement with :func:`opened` — never through
the scheme's ``read`` / ``unseal``, which refuse a user by bookkeeping
before any key is tried.
"""

from __future__ import annotations

from typing import List

from repro.acl import ABEACL, PublicKeyACL, SymmetricKeyACL
from repro.crypto import elgamal
from repro.crypto.symmetric import AuthenticatedCipher
from repro.exceptions import DecryptionError


def held_keys(scheme, user: str) -> List[object]:
    """Every key ``user`` holds in ``scheme`` right now.

    Symmetric keyrings keep past epochs, so one snapshot is everything a
    symmetric member was ever given; an ABE key is re-issued on every
    attribute change, so ABE callers snapshot after each one.
    """
    if isinstance(scheme, SymmetricKeyACL):
        return list(scheme._keyrings.get(user, {}).values())
    if isinstance(scheme, PublicKeyACL):
        held = scheme._private_keys
    elif isinstance(scheme, ABEACL):
        held = scheme._keys
    else:
        raise TypeError(f"no key adapter for {type(scheme).__name__}")
    return [held[user]] if user in held else []


def _open(scheme, record, key) -> bytes:
    if isinstance(scheme, SymmetricKeyACL):
        return AuthenticatedCipher(key).decrypt(record.blob)
    if isinstance(scheme, PublicKeyACL):
        for wrap in record.wrapped_keys.values():
            try:
                content_key = elgamal.decrypt_bytes(key, wrap)
            except DecryptionError:
                continue
            return AuthenticatedCipher(content_key).decrypt(record.payload)
        raise DecryptionError("the key unwraps no content key")
    return scheme.abe.decrypt_bytes(record.header, record.blob, key)


def opened(scheme, record, keys) -> List[bytes]:
    """The plaintexts ``record`` yields, one per key in ``keys`` that opens
    it, tried on the ciphertext alone."""
    texts = []
    for key in keys:
        try:
            texts.append(_open(scheme, record, key))
        except DecryptionError:
            pass
    return texts
