"""Signed message envelopes: owner, content, relation and expiry integrity.

Section IV of the paper frames data integrity with the party-invitation
scenario: Alice receives "Come to my party held at my home on Friday" and
must decide (a) is the sender really Bob? (b) is the content unmodified?
(c) is the invitation current or expired? (d) was it issued *for Alice* or
is it someone else's invitation replayed at her?

:class:`MessageEnvelope` answers all four with one Schnorr signature over a
canonical encoding that includes sender, optional recipient, issue/expiry
times and a sequence number.  The test-suite's "party scenario" tests map
each tampering attempt to the exact check that catches it.
"""

from __future__ import annotations

import random as _random
from dataclasses import dataclass
from typing import Optional, Tuple

from repro.crypto.hashing import digest_many
from repro.crypto.signatures import SchnorrPublicKey, SchnorrSigner
from repro.exceptions import IntegrityError


@dataclass(frozen=True)
class MessageEnvelope:
    """An immutable signed message.

    ``recipient=None`` means a broadcast (wall post); a named recipient
    binds the message to one reader — the paper's "integrity of the data
    relations" for direct messages.
    """

    sender: str
    recipient: Optional[str]
    body: bytes
    issued_at: float
    expires_at: Optional[float]
    sequence: int
    signature: Tuple[int, int]

    def canonical_bytes(self) -> bytes:
        """The byte string the signature covers (length-framed fields)."""
        return _canonical(self.sender, self.recipient, self.body,
                          self.issued_at, self.expires_at, self.sequence)


def _canonical(sender: str, recipient: Optional[str], body: bytes,
               issued_at: float, expires_at: Optional[float],
               sequence: int) -> bytes:
    return digest_many([
        b"repro/envelope/v1",
        sender.encode(),
        (recipient or "\x00broadcast").encode(),
        body,
        repr(issued_at).encode(),
        repr(expires_at).encode(),
        sequence.to_bytes(8, "big"),
    ])


def seal(signer: SchnorrSigner, sender: str, body: bytes,
         issued_at: float, recipient: Optional[str] = None,
         expires_at: Optional[float] = None, sequence: int = 0,
         rng: Optional[_random.Random] = None) -> MessageEnvelope:
    """Create and sign an envelope."""
    payload = _canonical(sender, recipient, body, issued_at, expires_at,
                         sequence)
    return MessageEnvelope(
        sender=sender, recipient=recipient, body=body, issued_at=issued_at,
        expires_at=expires_at, sequence=sequence,
        signature=signer.sign(payload, rng=rng))


def tampered_with(envelope: MessageEnvelope,
                  sender_key: SchnorrPublicKey) -> bool:
    """Pure predicate: does the signature fail (any field modified)?"""
    return not sender_key.verify(envelope.canonical_bytes(),
                                 envelope.signature)


def open_envelope(envelope: MessageEnvelope, sender_key: SchnorrPublicKey,
                  expected_recipient: Optional[str] = None,
                  now: Optional[float] = None) -> bytes:
    """Verify every integrity aspect and return the body.

    Raises :class:`IntegrityError` naming the violated aspect:

    * owner/content integrity — signature check against ``sender_key``
      (covers both "is it Bob?" and "did the content change?");
    * relation integrity — ``expected_recipient`` must match the envelope's
      recipient binding;
    * historical integrity (freshness) — ``now`` past ``expires_at``.
    """
    if tampered_with(envelope, sender_key):
        raise IntegrityError(
            "owner/content integrity violated: signature does not verify "
            f"under {envelope.sender!r}'s key")
    if expected_recipient is not None \
            and envelope.recipient != expected_recipient:
        raise IntegrityError(
            "relation integrity violated: envelope addressed to "
            f"{envelope.recipient!r}, not {expected_recipient!r}")
    if now is not None and envelope.expires_at is not None \
            and now > envelope.expires_at:
        raise IntegrityError(
            f"historical integrity violated: expired at "
            f"{envelope.expires_at}, now {now}")
    return envelope.body
