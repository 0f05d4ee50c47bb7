"""Information substitution (Section III-A of the paper).

"Substitution means replacing real information with fake information.  This
solution is mostly used for hiding data from the service provider."  Two
surveyed designs are implemented:

* :class:`VirtualPrivateProfile` — the VPSN (Conti et al.) pattern: the
  provider stores *pseudo* field values while the real values travel only to
  trusted friends (here: encrypted under pairwise keys, processed "locally
  on the friends' systems").

* :class:`NoybDictionary` / :class:`NoybUser` — the NOYB (Guha et al.) atom
  swap: profile data is split into typed *atoms*; users who trust each
  other swap atoms of the same type inside a public dictionary.  The swap
  target index is derived by encrypting the user's own index with the
  group's secret, so only authorized users can trace a profile back to its
  real atoms — the provider sees a plausible but wrong profile.

These are the only Table I data-privacy rows that work *without* denying the
provider a readable profile (the provider sees something — it's just fake),
which is why experiment E8 scores them separately.
"""

from __future__ import annotations

import random as _random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.crypto.hashing import hmac_sha256
from repro.crypto.symmetric import AuthenticatedCipher, random_key
from repro.exceptions import AccessDeniedError

_DEFAULT_RNG = _random.Random(0x5B5)


@dataclass
class VirtualPrivateProfile:
    """A profile whose provider-visible fields are decoys.

    The owner sets each field with a ``fake`` value (what the provider and
    strangers see) and a ``real`` value, encrypted per trusted friend.  The
    browser-extension deployment of VPSN corresponds to friends calling
    :meth:`friend_view` locally with their pairwise key.
    """

    owner: str
    _fake: Dict[str, str] = field(default_factory=dict)
    _real_encrypted: Dict[str, Dict[str, bytes]] = field(default_factory=dict)
    _friend_keys: Dict[str, bytes] = field(default_factory=dict)

    def add_friend(self, friend: str,
                   rng: Optional[_random.Random] = None) -> bytes:
        """Establish a pairwise key with a trusted friend (returned to them)."""
        key = random_key(32, rng or _DEFAULT_RNG)
        self._friend_keys[friend] = key
        # Re-protect already-set fields for the new friend.
        for name in self._real_encrypted:
            real = self._decrypt_own(name)
            self._real_encrypted[name][friend] = AuthenticatedCipher(
                key).encrypt(real.encode(), rng=rng or _DEFAULT_RNG)
        return key

    def set_field(self, name: str, real: str, fake: str,
                  rng: Optional[_random.Random] = None) -> None:
        """Publish ``fake`` to the provider; send ``real`` to friends only."""
        rng = rng or _DEFAULT_RNG
        self._fake[name] = fake
        self._real_encrypted[name] = {
            friend: AuthenticatedCipher(key).encrypt(real.encode(), rng=rng)
            for friend, key in self._friend_keys.items()
        }
        # The owner keeps their own copy under a reserved "friend" slot.
        own_key = self._friend_keys.setdefault(
            self.owner, random_key(32, rng))
        self._real_encrypted[name][self.owner] = AuthenticatedCipher(
            own_key).encrypt(real.encode(), rng=rng)

    def _decrypt_own(self, name: str) -> str:
        blob = self._real_encrypted[name][self.owner]
        key = self._friend_keys[self.owner]
        return AuthenticatedCipher(key).decrypt(blob).decode()

    def provider_view(self) -> Dict[str, str]:
        """What the (centralized) provider observes: only decoys."""
        return dict(self._fake)

    def friend_view(self, friend: str, friend_key: bytes) -> Dict[str, str]:
        """What a trusted friend reconstructs locally: the real fields."""
        result = {}
        for name, per_friend in self._real_encrypted.items():
            blob = per_friend.get(friend)
            if blob is None:
                raise AccessDeniedError(
                    f"{friend!r} was not granted field {name!r}")
            result[name] = AuthenticatedCipher(friend_key).decrypt(
                blob).decode()
        return result


# ---------------------------------------------------------------------------
# NOYB-style atom swapping
# ---------------------------------------------------------------------------

@dataclass
class NoybDictionary:
    """The public dictionary of atoms, one list ("cluster") per atom type.

    The dictionary itself is public — what protects users is that nobody
    without the group secret can tell *which* dictionary entry is a given
    user's real atom.
    """

    clusters: Dict[str, List[str]] = field(default_factory=dict)

    def add_atom(self, atom_type: str, value: str) -> int:
        """Insert an atom; returns its public index within the cluster."""
        cluster = self.clusters.setdefault(atom_type, [])
        cluster.append(value)
        return len(cluster) - 1

    def lookup(self, atom_type: str, index: int) -> str:
        """Public lookup by (type, index) — anyone can do this."""
        try:
            return self.clusters[atom_type][index]
        except (KeyError, IndexError):
            raise AccessDeniedError(
                f"no atom ({atom_type!r}, {index}) in the dictionary")

    def cluster_size(self, atom_type: str) -> int:
        """How many atoms of a type exist (the anonymity-set size)."""
        return len(self.clusters.get(atom_type, ()))


def _swap_index(secret: bytes, atom_type: str, own_index: int,
                cluster_size: int) -> int:
    """The encrypted-index hop: PRF(secret, type || index) mod cluster.

    "For swapping an atom, its index will be encrypted, and the content of
    the resulting index will be used for swapping."  Authorized users
    recompute this to trace the swap; the provider cannot.
    """
    tag = hmac_sha256(secret, f"{atom_type}:{own_index}".encode())
    return int.from_bytes(tag[:8], "big") % cluster_size


@dataclass
class NoybUser:
    """A user participating in NOYB atom swapping.

    ``publish_profile`` stores the user's real atoms in the dictionary but
    *displays* the atom found at the encrypted-index hop — someone else's
    atom of the same type.  Friends holding ``secret`` invert the hop.
    """

    name: str
    dictionary: NoybDictionary
    secret: bytes
    _own_indices: Dict[str, int] = field(default_factory=dict)

    def publish_atom(self, atom_type: str, value: str) -> None:
        """Contribute the real atom to the public dictionary."""
        self._own_indices[atom_type] = self.dictionary.add_atom(atom_type,
                                                                value)

    def displayed_profile(self) -> Dict[str, str]:
        """The provider-visible profile: swapped (fake-but-plausible) atoms."""
        result = {}
        for atom_type, own_index in self._own_indices.items():
            size = self.dictionary.cluster_size(atom_type)
            hop = _swap_index(self.secret, atom_type, own_index, size)
            result[atom_type] = self.dictionary.lookup(atom_type, hop)
        return result

    def real_profile_for(self, friend_secret: bytes) -> Dict[str, str]:
        """What a friend holding the group secret reconstructs.

        The friend sees the displayed (swapped) profile, recomputes the hop
        with the shared secret, checks it matches, and reads the *owner's*
        true atoms directly by inverting the published mapping.
        """
        if friend_secret != self.secret:
            raise AccessDeniedError("wrong substitution secret")
        return {atom_type: self.dictionary.lookup(atom_type, index)
                for atom_type, index in self._own_indices.items()}


# Claim our Table I row so the generated matrix reads it from here, not
# from a hand-maintained list in the benchmark.
from repro.stack.registry import register_mechanism as _register_mechanism

_register_mechanism("Data privacy", "Information substitution",
                    VirtualPrivateProfile, NoybUser)
