"""Hummingbird: privacy-preserving microblogging (Sections III-F and V-A).

De Cristofaro et al.'s Twitter-like design, as the paper describes it:

* "the symmetric key is derived by applying a combination of a PRF and a
  hash function on a particular part of message (hashtag)";
* "for the key dissemination an oblivious pseudo random function protocol
  must be followed between user and his friends";
* the (centralized, untrusted) server matches tweets to subscriptions by
  comparing *tags* it cannot invert — it never learns hashtags, tweet
  contents, or which interests a follower has.

Roles:

* :class:`HummingbirdServer`    — stores ciphertexts indexed by blinded tags;
  sees only pseudorandom identifiers (its view is exported for the E8
  exposure experiment).
* :class:`HummingbirdPublisher` — holds the OPRF secret; encrypts each tweet
  under ``K = F_s(hashtag)``; runs the OPRF *sender* side.
* :class:`HummingbirdFollower`  — runs the OPRF *receiver* side once per
  hashtag of interest; afterwards can match and decrypt all tweets with
  that hashtag, while the publisher never learned which hashtag it was.
"""

from __future__ import annotations

import random as _random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.crypto import prf
from repro.crypto.hashing import hkdf
from repro.crypto.symmetric import AuthenticatedCipher
from repro.exceptions import AccessDeniedError, DecryptionError

_DEFAULT_RNG = _random.Random(0x4B12D)


def _tag_from_key(tag_key: bytes) -> bytes:
    """The server-visible matching tag: a hash of the per-hashtag key."""
    return hkdf(tag_key, 16, info=b"repro/hummingbird/tag")


def _enc_key(tag_key: bytes) -> bytes:
    """The AEAD key derived from the same per-hashtag secret."""
    return hkdf(tag_key, 32, info=b"repro/hummingbird/enc")


@dataclass
class StoredTweet:
    """What the server stores: a blinded tag and an opaque ciphertext."""

    publisher: str
    tag: bytes
    ciphertext: bytes


@dataclass
class HummingbirdServer:
    """The honest-but-curious centralized matching server."""

    tweets: List[StoredTweet] = field(default_factory=list)

    def post(self, tweet: StoredTweet) -> None:
        """Accept a tweet (called by publishers)."""
        self.tweets.append(tweet)

    def match(self, tags: List[bytes]) -> List[StoredTweet]:
        """Deliver every stored tweet whose tag is subscribed to.

        The server compares opaque byte strings; it learns *that* a tweet
        matched a subscription but neither the hashtag nor the content.
        """
        wanted = set(tags)
        return [t for t in self.tweets if t.tag in wanted]

    def provider_view(self) -> List[Tuple[str, bytes]]:
        """Everything the server can observe: publishers and random-looking tags."""
        return [(t.publisher, t.tag) for t in self.tweets]


class HummingbirdPublisher:
    """A publisher with an OPRF secret over hashtags."""

    def __init__(self, name: str, level: str = "TOY",
                 rng: Optional[_random.Random] = None) -> None:
        self.name = name
        self.rng = rng or _DEFAULT_RNG
        self._oprf_key = prf.generate_oprf_key(level, self.rng)
        self._level = level

    def _tag_key(self, hashtag: str) -> bytes:
        return prf.evaluate_locally(self._oprf_key, hashtag.encode())

    def tweet(self, server: HummingbirdServer, hashtag: str,
              message: str) -> None:
        """Encrypt under ``F_s(hashtag)`` and post to the server."""
        tag_key = self._tag_key(hashtag)
        ciphertext = AuthenticatedCipher(_enc_key(tag_key)).encrypt(
            message.encode(), rng=self.rng)
        server.post(StoredTweet(publisher=self.name,
                                tag=_tag_from_key(tag_key),
                                ciphertext=ciphertext))

    def serve_subscription(self, blinded: int) -> int:
        """OPRF sender step: evaluate on a blinded hashtag.

        The publisher authorizes a follower for *one* hashtag without
        learning which — this is the blind key dissemination of III-F.
        """
        return prf.evaluate_blinded(self._oprf_key, blinded)


class HummingbirdFollower:
    """A follower who subscribes to hashtags obliviously."""

    def __init__(self, name: str, level: str = "TOY",
                 rng: Optional[_random.Random] = None) -> None:
        self.name = name
        self.rng = rng or _DEFAULT_RNG
        self._level = level
        #: (publisher, hashtag) -> per-hashtag key obtained via OPRF
        self._tag_keys: Dict[Tuple[str, str], bytes] = {}

    def subscribe(self, publisher: HummingbirdPublisher,
                  hashtag: str) -> None:
        """Run the two-move OPRF with the publisher for one hashtag."""
        request = prf.blind_request(hashtag.encode(), self._level, self.rng)
        evaluated = publisher.serve_subscription(request.blinded)
        self._tag_keys[(publisher.name, hashtag)] = request.finalize(evaluated)

    def fetch(self, server: HummingbirdServer) -> List[Tuple[str, str, str]]:
        """Pull and decrypt matching tweets: (publisher, hashtag, message)."""
        by_tag = {_tag_from_key(key): (pub_tag, key)
                  for pub_tag, key in self._tag_keys.items()}
        results = []
        for tweet in server.match(list(by_tag)):
            (publisher, hashtag), key = by_tag[tweet.tag]
            try:
                message = AuthenticatedCipher(_enc_key(key)).decrypt(
                    tweet.ciphertext)
            except DecryptionError:
                raise AccessDeniedError(
                    "tag matched but decryption failed (key mismatch)")
            results.append((publisher, hashtag, message.decode()))
        return results


# Hummingbird's PRF-keyed hashtag encryption is the paper's named example
# of hybrid protection in microblogging; claim the Table I row here.
from repro.stack.registry import register_mechanism as _register_mechanism

_register_mechanism("Data privacy", "Hybrid encryption",
                    HummingbirdPublisher)
