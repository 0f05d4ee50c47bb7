"""The oblivious pseudorandom function (OPRF) protocol.

Section III-F of the paper describes Hummingbird's hybrid scheme: "the
symmetric key is derived by applying a combination of a PRF and a hash
function on a particular part of the message (hashtag). For the key
dissemination an oblivious pseudo random function protocol must be followed
between user and his friends."

The 2HashDH OPRF: ``F_s(x) = H2(x, H1(x)^s)`` over a Schnorr group.  The
receiver blinds ``H1(x)`` with a random exponent, the sender raises it to
the secret ``s``, the receiver unblinds — the sender never learns ``x``,
the receiver never learns ``s``.  Implemented as explicit message-passing
state machines so the DOSN layer can run it across simulated peers.
"""

from __future__ import annotations

import random as _random
from dataclasses import dataclass
from typing import Optional

from repro.crypto.groups import SchnorrGroup, group_for_level
from repro.crypto.hashing import hkdf
from repro.crypto.numbertheory import modinv
from repro.exceptions import CryptoError

_DEFAULT_RNG = _random.Random(0x0F4F)


@dataclass(frozen=True)
class OPRFKey:
    """The sender's OPRF secret ``s`` (an exponent in the group)."""

    group: SchnorrGroup
    s: int


def generate_oprf_key(level: str = "TOY",
                      rng: Optional[_random.Random] = None,
                      group: Optional[SchnorrGroup] = None) -> OPRFKey:
    """Fresh OPRF secret."""
    group = group or group_for_level(level)
    rng = rng or _DEFAULT_RNG
    return OPRFKey(group=group, s=group.random_scalar(rng))


def _finalize(group: SchnorrGroup, value: bytes, element: int,
              length: int) -> bytes:
    width = (group.p.bit_length() + 7) // 8
    return hkdf(value + element.to_bytes(width, "big"), length,
                info=b"repro/oprf/H2")


def evaluate_locally(key: OPRFKey, value: bytes, length: int = 32) -> bytes:
    """Direct evaluation ``F_s(x)`` by the key holder (no protocol)."""
    h1 = key.group.hash_to_element(value, domain=b"oprf/H1")
    return _finalize(key.group, value, key.group.power(h1, key.s), length)


@dataclass
class OPRFRequest:
    """Receiver-side state after blinding; ``blinded`` goes on the wire."""

    group: SchnorrGroup
    value: bytes
    blinded: int
    _r: int

    def finalize(self, evaluated: int, length: int = 32) -> bytes:
        """Unblind the sender's response and apply the outer hash.

        ``evaluated`` must be ``blinded^s``; unblinding computes
        ``H1(x)^s = evaluated^(1/r)``.
        """
        if not self.group.contains(evaluated):
            raise CryptoError("OPRF response outside the subgroup")
        unblinded = self.group.power(evaluated, modinv(self._r, self.group.q))
        return _finalize(self.group, self.value, unblinded, length)


def blind_request(value: bytes, level: str = "TOY",
                  rng: Optional[_random.Random] = None,
                  group: Optional[SchnorrGroup] = None) -> OPRFRequest:
    """Receiver step 1: blind the hashed input with a random exponent."""
    group = group or group_for_level(level)
    rng = rng or _DEFAULT_RNG
    r = group.random_scalar(rng)
    h1 = group.hash_to_element(value, domain=b"oprf/H1")
    return OPRFRequest(group=group, value=value,
                       blinded=group.power(h1, r), _r=r)


def evaluate_blinded(key: OPRFKey, blinded: int) -> int:
    """Sender step 2: raise the blinded element to the secret exponent.

    The input is a uniformly random group element from the sender's point of
    view, so nothing about ``x`` leaks.
    """
    if not key.group.contains(blinded):
        raise CryptoError("blinded OPRF input outside the subgroup")
    return key.group.power(blinded, key.s)
