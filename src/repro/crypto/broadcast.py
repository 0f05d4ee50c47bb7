"""Broadcast encryption: naive per-recipient BE and complete-subtree revocation.

Section III-E of the paper introduces broadcast encryption (Fiat–Naor) as
the ancestor of IBBE: "there exist a broadcast channel among the list of the
recipients ... the broadcaster selects a group of identities in order to
encrypt the messages for them".

Two constructions, one header-size trade-off:

* :class:`NaiveBroadcast` — one key wrap per recipient; header grows as
  O(|S|) but joins/leaves are trivial.
* :class:`CompleteSubtreeBE` — the NNL complete-subtree subset-cover scheme:
  users are leaves of a binary tree, each holds the ``log2(n)+1`` keys on
  its root path, and a broadcast to "everyone except the ``r`` revoked
  users" needs only ``O(r * log(n/r))`` key wraps.  This is the classic
  stateless-revocation trade-off the survey alludes to when discussing
  revocation costs.
"""

from __future__ import annotations

import random as _random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.crypto.hashing import hkdf
from repro.crypto.symmetric import AuthenticatedCipher, random_key
from repro.exceptions import CryptoError, DecryptionError

_DEFAULT_RNG = _random.Random(0xBCA5)


@dataclass
class NaiveBroadcast:
    """Per-recipient key wrapping under pairwise shared keys.

    The broadcaster shares an independent symmetric key with every user
    (``user_keys``); broadcasting wraps the fresh content key once per
    recipient.  Header size is linear in the audience.
    """

    user_keys: Dict[str, bytes] = field(default_factory=dict)

    def register(self, user: str,
                 rng: Optional[_random.Random] = None) -> bytes:
        """Provision a user with a fresh pairwise key (returned to the user)."""
        key = random_key(32, rng or _DEFAULT_RNG)
        self.user_keys[user] = key
        return key

    def encrypt(self, recipients: Sequence[str], message: bytes,
                rng: Optional[_random.Random] = None
                ) -> Tuple[Dict[str, bytes], bytes]:
        """Returns ``(per-recipient wrapped keys, payload)``."""
        rng = rng or _DEFAULT_RNG
        content_key = random_key(32, rng)
        wraps = {}
        for user in recipients:
            if user not in self.user_keys:
                raise CryptoError(f"unknown recipient {user!r}")
            wraps[user] = AuthenticatedCipher(
                self.user_keys[user]).encrypt(content_key, rng=rng)
        payload = AuthenticatedCipher(content_key).encrypt(message, rng=rng)
        return wraps, payload

    @staticmethod
    def decrypt(user_key: bytes, wrapped: bytes, payload: bytes) -> bytes:
        """Unwrap the content key with the pairwise key, then decrypt."""
        content_key = AuthenticatedCipher(user_key).decrypt(wrapped)
        return AuthenticatedCipher(content_key).decrypt(payload)


@dataclass(frozen=True)
class SubtreeUserKeys:
    """A user's key material: the node keys along its leaf-to-root path."""

    user_index: int
    path_keys: Dict[int, bytes]  # node id (heap order) -> key


class CompleteSubtreeBE:
    """NNL complete-subtree broadcast encryption over ``n`` users.

    Nodes are numbered heap-style (root = 1); user ``i`` sits at leaf
    ``capacity + i``.  Node keys are derived from a master secret so the
    broadcaster stores O(1) state.
    """

    def __init__(self, capacity: int,
                 rng: Optional[_random.Random] = None) -> None:
        if capacity < 1 or capacity & (capacity - 1):
            raise CryptoError("capacity must be a positive power of two")
        self.capacity = capacity
        self._master = random_key(32, rng or _DEFAULT_RNG)

    def _node_key(self, node: int) -> bytes:
        return hkdf(self._master, 32,
                    info=b"repro/cs-be/node/" + node.to_bytes(8, "big"))

    def _leaf(self, user_index: int) -> int:
        if not 0 <= user_index < self.capacity:
            raise CryptoError(f"user index {user_index} out of range")
        return self.capacity + user_index

    def user_keys(self, user_index: int) -> SubtreeUserKeys:
        """The ``log2(n)+1`` keys user ``user_index`` receives at join time."""
        node = self._leaf(user_index)
        keys = {}
        while node >= 1:
            keys[node] = self._node_key(node)
            node //= 2
        return SubtreeUserKeys(user_index=user_index, path_keys=keys)

    def cover(self, revoked: Sequence[int]) -> List[int]:
        """The complete-subtree cover of all non-revoked leaves.

        Standard NNL algorithm: mark the Steiner tree of revoked leaves;
        every non-marked child hanging off the Steiner tree roots one cover
        subtree.  With no revocations the cover is just the root.
        """
        revoked_set = set(revoked)
        for r in revoked_set:
            self._leaf(r)  # range check
        if not revoked_set:
            return [1]
        if len(revoked_set) == self.capacity:
            return []
        steiner: Set[int] = set()
        for r in revoked_set:
            node = self._leaf(r)
            while node >= 1 and node not in steiner:
                steiner.add(node)
                node //= 2
        cover: List[int] = []
        for node in steiner:
            if 2 * node <= 2 * self.capacity - 1:  # interior node
                for child in (2 * node, 2 * node + 1):
                    if child not in steiner:
                        cover.append(child)
        return sorted(cover)

    def encrypt(self, revoked: Sequence[int], message: bytes,
                rng: Optional[_random.Random] = None
                ) -> Tuple[Dict[int, bytes], bytes]:
        """Encrypt to everyone except ``revoked``.

        Returns ``(cover-node -> wrapped content key, payload)``; header
        size equals the cover size, ``O(r log(n/r))``.
        """
        rng = rng or _DEFAULT_RNG
        content_key = random_key(32, rng)
        wraps = {
            node: AuthenticatedCipher(self._node_key(node)).encrypt(
                content_key, rng=rng)
            for node in self.cover(revoked)
        }
        payload = AuthenticatedCipher(content_key).encrypt(message, rng=rng)
        return wraps, payload

    @staticmethod
    def decrypt(user: SubtreeUserKeys, wraps: Dict[int, bytes],
                payload: bytes) -> bytes:
        """Decrypt if any cover node lies on the user's root path."""
        for node, wrapped in wraps.items():
            key = user.path_keys.get(node)
            if key is not None:
                content_key = AuthenticatedCipher(key).decrypt(wrapped)
                return AuthenticatedCipher(content_key).decrypt(payload)
        raise DecryptionError(
            f"user {user.user_index} is revoked from this broadcast")
