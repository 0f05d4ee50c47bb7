"""Content privacy via blind signatures (Section V-A).

"Blind Signatures can help to provide the privacy of content ... a
signature of a message's keyword is used as a key to encrypt the message.
By considering this idea, anyone who gets the signature on that keyword can
also decrypt the message ... Each subscriber will get the signature on the
main keyword (hashtag) of each tweet, by the use of the blind signature,
while his interest will not be revealed to the publisher."

Protocol roles (this is the blind-RSA variant; the OPRF variant lives in
:mod:`repro.acl.hummingbird` — the survey describes both):

* :class:`BlindPublisher` — holds an RSA signing key; the key that encrypts
  a tweet tagged ``#k`` is derived from ``Sig(#k)``; grants subscriptions
  by signing *blinded* keywords.
* :class:`BlindSubscriber` — blinds the keyword, obtains the signature,
  unblinds, and can thereafter decrypt everything tagged with it.
* The :class:`~repro.acl.hummingbird.HummingbirdServer`-style matching is
  kept trivial here (tag = hash of the signature) to keep the module
  focused on the blind-signature mechanics.
"""

from __future__ import annotations

import random as _random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.crypto import blind, rsa
from repro.crypto.hashing import hkdf
from repro.crypto.symmetric import AuthenticatedCipher
from repro.exceptions import AccessDeniedError, DecryptionError

_DEFAULT_RNG = _random.Random(0xB5CB)


def _keys_from_signature(signature: bytes) -> Tuple[bytes, bytes]:
    """(matching tag, AEAD key) derived from the keyword signature."""
    tag = hkdf(signature, 16, info=b"repro/blindsub/tag")
    key = hkdf(signature, 32, info=b"repro/blindsub/key")
    return tag, key


@dataclass
class TaggedCiphertext:
    """A published message: opaque tag + ciphertext."""

    publisher: str
    tag: bytes
    ciphertext: bytes


class BlindPublisher:
    """A publisher whose keyword signatures double as decryption keys."""

    def __init__(self, name: str, key_bits: int = 512,
                 rng: Optional[_random.Random] = None) -> None:
        self.name = name
        self.rng = rng or _DEFAULT_RNG
        self._key = rsa.generate_keypair(key_bits, rng=self.rng)
        self.outbox: List[TaggedCiphertext] = []
        #: blinded values this publisher signed (all it ever learns)
        self.subscription_log: List[int] = []

    @property
    def public_key(self) -> rsa.RSAPublicKey:
        """Published so subscribers can blind/verify."""
        return self._key.public_key

    def publish(self, keyword: str, message: str) -> TaggedCiphertext:
        """Encrypt under the key derived from ``Sig(keyword)``."""
        signature = blind.sign_directly(self._key, keyword.encode())
        tag, key = _keys_from_signature(signature)
        item = TaggedCiphertext(
            publisher=self.name, tag=tag,
            ciphertext=AuthenticatedCipher(key).encrypt(message.encode(),
                                                        rng=self.rng))
        self.outbox.append(item)
        return item

    def grant_subscription(self, blinded: int) -> int:
        """Sign a blinded keyword — the publisher cannot tell which."""
        self.subscription_log.append(blinded)
        return blind.sign_blinded(self._key, blinded)


class BlindSubscriber:
    """A subscriber with interests hidden from the publisher."""

    def __init__(self, name: str,
                 rng: Optional[_random.Random] = None) -> None:
        self.name = name
        self.rng = rng or _DEFAULT_RNG
        #: (publisher, keyword) -> (tag, AEAD key)
        self._subscriptions: Dict[Tuple[str, str], Tuple[bytes, bytes]] = {}

    def subscribe(self, publisher: BlindPublisher, keyword: str) -> None:
        """Run the blind-signature protocol for one keyword."""
        ctx = blind.blind(publisher.public_key, keyword.encode(), self.rng)
        signature = ctx.unblind(publisher.grant_subscription(ctx.blinded))
        self._subscriptions[(publisher.name, keyword)] = \
            _keys_from_signature(signature)

    def try_decrypt(self, item: TaggedCiphertext
                    ) -> Optional[Tuple[str, str]]:
        """(keyword, message) when subscribed to this item's tag, else None."""
        for (publisher, keyword), (tag, key) in self._subscriptions.items():
            if publisher == item.publisher and tag == item.tag:
                try:
                    message = AuthenticatedCipher(key).decrypt(
                        item.ciphertext)
                except DecryptionError:
                    raise AccessDeniedError(
                        "tag matched but key failed — corrupted item")
                return keyword, message.decode()
        return None

    def fetch_all(self, publisher: BlindPublisher
                  ) -> List[Tuple[str, str]]:
        """Everything decryptable from a publisher's outbox."""
        results = []
        for item in publisher.outbox:
            hit = self.try_decrypt(item)
            if hit is not None:
                results.append(hit)
        return results
