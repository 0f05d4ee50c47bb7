"""Common machinery for access-control schemes (Section III of the paper).

The paper's central comparison (Table I, "Data privacy") is between six ways
of enforcing *access control management* — "to determine which part of data
being shared with whom".  Every scheme in this package implements the same
:class:`AccessControlScheme` contract so experiment E3 can drive the full
group lifecycle (create / publish / read / join / revoke) uniformly and
:class:`CostMeter` can account for what each scheme pays where.

The contract deliberately mirrors the paper's prose:

* ``create_group``  — "For each new group, a distinct key should be defined"
  (symmetric), "a single encryption operation" (ABE), etc.
* ``add_member``    — "Adding a user to the existing group means sharing the
  group key with that user."
* ``revoke_member`` — "For the revocation, we need to create a new key and
  re-encrypt the whole data" (symmetric) vs. "removing a recipient from the
  list would then have no extra cost" (IBBE).
"""

from __future__ import annotations

import abc
import random as _random
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional

from repro.exceptions import AccessDeniedError


@dataclass
class CostMeter:
    """Operation accounting shared by all ACL schemes.

    Counters use scheme-neutral names so benchmark output is comparable:
    ``sym_encrypt``, ``pub_encrypt`` (any asymmetric op, incl. pairings),
    ``key_distribution`` (one credential delivered to one user),
    ``reencryption`` (one stored item re-protected), and ``header_bytes``
    (access-control metadata attached to ciphertexts).
    """

    counts: Counter = field(default_factory=Counter)

    def count(self, operation: str, n: int = 1) -> None:
        """Record ``n`` occurrences of ``operation``."""
        self.counts[operation] += n

    def snapshot(self) -> Dict[str, int]:
        """A plain-dict copy for reporting."""
        return dict(self.counts)

    def reset(self) -> None:
        """Zero all counters (benchmarks call this between phases)."""
        self.counts.clear()

    def total(self, *operations: str) -> int:
        """Sum of the listed counters (all counters when none given)."""
        if not operations:
            return sum(self.counts.values())
        return sum(self.counts[op] for op in operations)


@dataclass
class GroupState:
    """Bookkeeping for one access group inside a scheme."""

    name: str
    members: set = field(default_factory=set)
    #: item id -> scheme-specific ciphertext record
    items: Dict[str, object] = field(default_factory=dict)


class AccessControlScheme(abc.ABC):
    """Abstract group-based access control over byte-string content.

    Concrete schemes provide the crypto; this base class provides group
    bookkeeping, membership checks and the shared :class:`CostMeter`.
    Users are referred to by opaque string ids; each scheme is responsible
    for provisioning per-user key material in :meth:`register_user`.
    """

    #: human-readable scheme label used by the Table I generator
    scheme_name: str = "abstract"
    #: Table I solution row this scheme instantiates
    table1_row: str = ""

    def __init__(self, rng: Optional[_random.Random] = None) -> None:
        self.rng = rng or _random.Random(0xAC1)
        self.meter = CostMeter()
        self.groups: Dict[str, GroupState] = {}
        self.users: set = set()

    # -- user / group lifecycle -------------------------------------------

    def register_user(self, user: str) -> None:
        """Provision key material for a new user (idempotent)."""
        if user in self.users:
            return
        self.users.add(user)
        self._provision_user(user)

    def create_group(self, name: str, members: List[str]) -> GroupState:
        """Create a group with an initial member list."""
        if name in self.groups:
            raise AccessDeniedError(f"group {name!r} already exists")
        for member in members:
            self.register_user(member)
        group = GroupState(name=name, members=set(members))
        self.groups[name] = group
        self._setup_group(group)
        return group

    def add_member(self, group_name: str, user: str) -> None:
        """Grant ``user`` access to the group (and, per scheme, its history)."""
        group = self._group(group_name)
        self.register_user(user)
        if user in group.members:
            return
        group.members.add(user)
        self._on_member_added(group, user)

    def revoke_member(self, group_name: str, user: str) -> None:
        """Remove ``user``; the scheme decides what re-protection costs."""
        group = self._group(group_name)
        if user not in group.members:
            raise AccessDeniedError(f"{user!r} is not in group {group_name!r}")
        group.members.discard(user)
        self._on_member_revoked(group, user)

    # -- content ------------------------------------------------------------

    def publish(self, group_name: str, item_id: str, plaintext: bytes) -> None:
        """Encrypt ``plaintext`` so current group members can read it."""
        group = self._group(group_name)
        group.items[item_id] = self._encrypt_item(group, plaintext)

    def read(self, group_name: str, item_id: str, user: str) -> bytes:
        """Decrypt an item as ``user``; raises on missing privileges.

        The membership check is *not* done by list lookup — the ciphertext
        itself must be undecryptable by non-members.  Schemes may raise
        :class:`~repro.exceptions.DecryptionError`, which is translated to
        :class:`~repro.exceptions.AccessDeniedError` here.
        """
        group = self._group(group_name)
        if item_id not in group.items:
            raise AccessDeniedError(f"no item {item_id!r} in {group_name!r}")
        return self._decrypt_item(group, group.items[item_id], user)

    def seal(self, group_name: str, plaintext: bytes) -> object:
        """Encrypt for the group's current members and hand the record back.

        Unlike :meth:`publish` nothing is stored: the caller places the
        record (a pod, a mirror, a DHT), so revocation re-protects only
        what :meth:`publish` stored.
        """
        return self._encrypt_item(self._group(group_name), plaintext)

    def unseal(self, group_name: str, record: object, user: str) -> bytes:
        """Open a record from :meth:`seal` as ``user``, on their keys alone."""
        return self._decrypt_item(self._group(group_name), record, user)

    def _group(self, name: str) -> GroupState:
        try:
            return self.groups[name]
        except KeyError:
            raise AccessDeniedError(f"unknown group {name!r}")

    # -- scheme-specific hooks ----------------------------------------------

    @abc.abstractmethod
    def _provision_user(self, user: str) -> None:
        """Create per-user key material."""

    @abc.abstractmethod
    def _setup_group(self, group: GroupState) -> None:
        """Create per-group key material for the initial member set."""

    @abc.abstractmethod
    def _on_member_added(self, group: GroupState, user: str) -> None:
        """Grant a new member access (including back-catalogue if supported)."""

    @abc.abstractmethod
    def _on_member_revoked(self, group: GroupState, user: str) -> None:
        """Re-protect the group after a revocation."""

    @abc.abstractmethod
    def _encrypt_item(self, group: GroupState, plaintext: bytes) -> object:
        """Produce the scheme-specific ciphertext record."""

    @abc.abstractmethod
    def _decrypt_item(self, group: GroupState, record: object,
                      user: str) -> bytes:
        """Recover plaintext with ``user``'s credentials or raise."""
