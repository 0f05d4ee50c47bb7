"""Zero-knowledge proofs: the Fiat–Shamir Schnorr proof of a discrete log.

Section V-B of the paper: "Zero Knowledge Proof alongside using pseudonyms
is another solution [for privacy of the searcher]. A user can use a
pseudonym while searching in the network, and when (s)he wants to reach a
content belonging to another person, (s)he uses ZKP to prove having
privileges to access."  (The Backes–Maffei–Pecina security API.)

:func:`prove_dlog_nizk` proves knowledge of ``x`` for ``y = g^x`` without
interaction; it is what the pseudonymous search credentials of
:mod:`repro.search.zkp_access` present.
"""

from __future__ import annotations

import random as _random
from dataclasses import dataclass
from typing import Optional

from repro.crypto.groups import SchnorrGroup
from repro.crypto.hashing import hash_to_int

_DEFAULT_RNG = _random.Random(0x2E9)


@dataclass(frozen=True)
class DlogProof:
    """NIZK proof of knowledge of ``x`` with ``y = g^x``: ``(t, s)``."""

    commitment: int
    response: int


def _fs_challenge(group: SchnorrGroup, y: int, t: int, context: bytes) -> int:
    width = (group.p.bit_length() + 7) // 8
    data = y.to_bytes(width, "big") + t.to_bytes(width, "big") + context
    return hash_to_int(data, group.q, domain=b"repro/zkp/fs")


def prove_dlog_nizk(group: SchnorrGroup, x: int, context: bytes = b"",
                    rng: Optional[_random.Random] = None) -> DlogProof:
    """Non-interactive proof of knowledge of ``x`` for ``y = g^x``.

    ``context`` binds the proof to a session/statement (anti-replay): a
    verifier checking with a different context will reject.
    """
    rng = rng or _DEFAULT_RNG
    k = group.random_scalar(rng)
    t = group.exp(k)
    c = _fs_challenge(group, group.exp(x), t, context)
    return DlogProof(commitment=t, response=(k + c * x) % group.q)


def verify_dlog_nizk(group: SchnorrGroup, y: int, proof: DlogProof,
                     context: bytes = b"") -> bool:
    """Verify a :func:`prove_dlog_nizk` proof against public ``y``."""
    if not group.contains(proof.commitment):
        return False
    c = _fs_challenge(group, y, proof.commitment, context)
    lhs = group.exp(proof.response)
    rhs = group.mul(proof.commitment, group.power(y, c))
    return lhs == rhs
