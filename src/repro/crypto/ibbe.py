"""Delerablée Identity-Based Broadcast Encryption (constant-size ciphertext).

Section III-E of the paper: "In IBBE schemes, audiences of a broadcast group
can use any identifier string as their public keys ... IBBE is more flexible
than ABE, since it addresses individual recipients instead of the whole
group.  Removing a recipient from the list would then have no extra cost."

The scheme (ASIACRYPT 2007) instantiated on our Type-1 pairing:

* setup(m):  msk ``(g, gamma)``; pk ``(w = g^gamma, v = e(g, h),
  h, h^gamma, ..., h^{gamma^m})`` for max broadcast size ``m``
* extract:   ``sk_ID = g^{1/(gamma + H(ID))}``
* encrypt(S): random ``k``; ``C1 = w^{-k}``,
  ``C2 = h^{k * prod_{ID in S}(gamma + H(ID))}``, session key ``K = v^k``
* decrypt:   ``K = (e(C1, h^{p_i(gamma)}) * e(sk_i, C2))^{1/prod_{j!=i} H(ID_j)}``

``C2`` and ``h^{p_i(gamma)}`` are computed from the published powers of
``gamma`` via polynomial expansion over ``Z_q`` — no secret is needed to
encrypt, and the ciphertext size is independent of ``|S|`` (two group
elements), which experiment E3 contrasts with the per-member ciphertexts of
the public-key ACL.
"""

from __future__ import annotations

import random as _random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.crypto.hashing import hkdf
from repro.crypto.numbertheory import modinv
from repro.crypto.pairing import G1Element, GTElement, PairingGroup, pairing_group
from repro.crypto.symmetric import AuthenticatedCipher
from repro.exceptions import CryptoError, DecryptionError

_DEFAULT_RNG = _random.Random(0x1BBE)


def _expand_roots(roots: Sequence[int], q: int) -> List[int]:
    """Coefficients (low-to-high) of ``prod_i (X + roots[i])`` over Z_q."""
    coeffs = [1]
    for root in roots:
        nxt = [0] * (len(coeffs) + 1)
        for degree, coeff in enumerate(coeffs):
            nxt[degree] = (nxt[degree] + coeff * root) % q
            nxt[degree + 1] = (nxt[degree + 1] + coeff) % q
        coeffs = nxt
    return coeffs


@dataclass(frozen=True)
class IBBEPublicKey:
    """Public parameters; ``h_powers[i] == h^{gamma^i}``."""

    group: PairingGroup
    max_recipients: int
    w: G1Element
    v: GTElement
    h_powers: Tuple[G1Element, ...]


@dataclass(frozen=True)
class IBBEUserKey:
    """A recipient's extracted key ``g^{1/(gamma + H(ID))}``."""

    identity: str
    sk: G1Element


@dataclass(frozen=True)
class IBBEHeader:
    """Constant-size broadcast header ``(C1, C2)`` plus the recipient list.

    The recipient list is metadata, not a secret: the scheme hides the
    *message*, not the audience (audience-hiding would need anonymous BE).
    """

    recipients: Tuple[str, ...]
    c1: G1Element
    c2: G1Element


class IBBE:
    """An IBBE context bound to one pairing parameter set."""

    def __init__(self, level: str = "TOY") -> None:
        self.group = pairing_group(level)

    def _hash_identity(self, identity: str) -> int:
        return self.group.hash_to_scalar(identity.encode(),
                                         domain=b"/ibbe/id")

    def setup(self, max_recipients: int,
              rng: Optional[_random.Random] = None
              ) -> Tuple[IBBEPublicKey, "IBBEMasterKey"]:
        """Generate system parameters for broadcasts of up to ``max_recipients``."""
        if max_recipients < 1:
            raise CryptoError("max_recipients must be positive")
        rng = rng or _DEFAULT_RNG
        g = self.group.generator
        h = self.group.hash_to_g1(b"repro/ibbe/h")
        gamma = self.group.random_scalar(rng)
        powers = []
        acc = 1
        for _ in range(max_recipients + 1):
            powers.append(h ** acc)
            acc = acc * gamma % self.group.q
        pk = IBBEPublicKey(group=self.group, max_recipients=max_recipients,
                           w=g ** gamma, v=self.group.pair(g, h),
                           h_powers=tuple(powers))
        return pk, IBBEMasterKey(scheme=self, g=g, gamma=gamma)

    def _poly_in_h(self, pk: IBBEPublicKey, coeffs: Sequence[int]) -> G1Element:
        """``h^{f(gamma)}`` for polynomial ``f`` given by ``coeffs``: one
        multi-exponentiation over the published powers ``h^{gamma^i}``."""
        if len(coeffs) > len(pk.h_powers):
            raise CryptoError("polynomial degree exceeds setup bound")
        return self.group.multi_exp(pk.h_powers[:len(coeffs)], coeffs)

    def encrypt_key(self, pk: IBBEPublicKey, recipients: Sequence[str],
                    rng: Optional[_random.Random] = None
                    ) -> Tuple[IBBEHeader, GTElement]:
        """Produce a broadcast header and the shared session key ``K = v^k``."""
        if not recipients:
            raise CryptoError("broadcast needs at least one recipient")
        if len(set(recipients)) != len(recipients):
            raise CryptoError("duplicate recipients in broadcast set")
        if len(recipients) > pk.max_recipients:
            raise CryptoError(
                f"{len(recipients)} recipients exceeds setup bound "
                f"{pk.max_recipients}")
        rng = rng or _DEFAULT_RNG
        q = self.group.q
        k = self.group.random_scalar(rng)
        hashes = [self._hash_identity(r) for r in recipients]
        coeffs = _expand_roots(hashes, q)
        c1 = (pk.w ** k).inverse()
        c2 = self._poly_in_h(pk, [c * k % q for c in coeffs])
        return (IBBEHeader(recipients=tuple(recipients), c1=c1, c2=c2),
                pk.v ** k)

    def decrypt_key(self, pk: IBBEPublicKey, header: IBBEHeader,
                    user_key: IBBEUserKey) -> GTElement:
        """Recover the session key as recipient ``user_key.identity``."""
        if user_key.identity not in header.recipients:
            raise DecryptionError(
                f"{user_key.identity!r} is not in the broadcast set")
        q = self.group.q
        others = [self._hash_identity(r) for r in header.recipients
                  if r != user_key.identity]
        delta = 1
        for x in others:
            delta = delta * x % q
        # p_i(gamma) = (prod_{j != i}(gamma + x_j) - delta) / gamma:
        # subtracting the constant term and shifting down one degree.
        coeffs = _expand_roots(others, q)
        shifted = coeffs[1:] if len(coeffs) > 1 else [0]
        h_pi = self._poly_in_h(pk, shifted)
        paired = self.group.pair_product([(header.c1, h_pi),
                                          (user_key.sk, header.c2)])
        return paired ** modinv(delta, q)

    # -- byte-level hybrid API ---------------------------------------------

    def encrypt_bytes(self, pk: IBBEPublicKey, recipients: Sequence[str],
                      message: bytes,
                      rng: Optional[_random.Random] = None
                      ) -> Tuple[IBBEHeader, bytes]:
        """Broadcast-encrypt bytes: IBBE header + AEAD payload."""
        rng = rng or _DEFAULT_RNG
        header, session = self.encrypt_key(pk, recipients, rng)
        key = hkdf(session.to_bytes(), 32, info=b"repro/ibbe/kem")
        return header, AuthenticatedCipher(key).encrypt(message, rng=rng)

    def decrypt_bytes(self, pk: IBBEPublicKey, header: IBBEHeader,
                      blob: bytes, user_key: IBBEUserKey) -> bytes:
        """Invert :meth:`encrypt_bytes` as one of the listed recipients."""
        session = self.decrypt_key(pk, header, user_key)
        key = hkdf(session.to_bytes(), 32, info=b"repro/ibbe/kem")
        return AuthenticatedCipher(key).decrypt(blob)


@dataclass(frozen=True)
class IBBEMasterKey:
    """The PKG side: extracts user keys with the master secret ``gamma``."""

    scheme: IBBE
    g: G1Element
    gamma: int

    def extract(self, identity: str) -> IBBEUserKey:
        """Issue ``sk_ID = g^{1/(gamma + H(ID))}``."""
        q = self.scheme.group.q
        denom = (self.gamma + self.scheme._hash_identity(identity)) % q
        if denom == 0:  # pragma: no cover - probability ~2^-64
            raise CryptoError("degenerate identity hash; re-run setup")
        return IBBEUserKey(identity=identity,
                           sk=self.g ** modinv(denom, q))
