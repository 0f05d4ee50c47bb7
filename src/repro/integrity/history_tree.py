"""Object history trees with fork-consistency detection (Frientegrity).

Section IV-B of the paper: "Fork-consistent systems can be used for ensuring
historical integrity.  [Frientegrity] proposed object history tree
accompanied by a fork-consistency approach ... a malicious service provider
or any data storage utility cannot present different clients with divergent
views of the system's state ... Clients share information about their
individual views of the history by embedding it in every operation they
perform.  As a result, if the clients who have been equivocated by the
service provider communicate to each other, they will discover the
provider's misbehaviour.  In this method, the service provider also
digitally signs the root of object history tree in order to prevent the
client from later falsely accusing the server of cheating."

Pieces:

* :class:`ObjectHistory` — the per-object operation log, Merkle-rooted so
  membership of any operation is provable in O(log n) (experiment E4
  compares this against shipping the full log).
* :class:`HistoryServer` — an honest provider: appends ops, returns
  *signed* version/root pairs.
* :class:`ForkingServer` — a malicious provider maintaining divergent
  views for disjoint client sets (the equivocation attack).
* :class:`FortClient` — embeds its current (version, root) view in every
  operation and cross-checks every other client's embedded view it sees;
  :meth:`FortClient.sync` raises :class:`IntegrityError` carrying the two
  *signed* contradictory roots — a non-repudiable proof of misbehaviour.
"""

from __future__ import annotations

import random as _random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.crypto.merkle import MerkleProof, MerkleTree
from repro.crypto.hashing import digest_many
from repro.crypto.signatures import SchnorrPublicKey, SchnorrSigner
from repro.exceptions import IntegrityError


@dataclass(frozen=True)
class Operation:
    """One client operation, carrying the client's embedded view."""

    client: str
    payload: bytes
    seen_version: int
    seen_root: bytes

    def encode(self) -> bytes:
        """Canonical leaf encoding for the history tree."""
        return digest_many([
            self.client.encode(), self.payload,
            self.seen_version.to_bytes(8, "big"), self.seen_root,
        ])


@dataclass(frozen=True)
class SignedRoot:
    """A provider-signed (object, version, root) commitment."""

    object_id: str
    version: int
    root: bytes
    signature: Tuple[int, int]

    def signed_bytes(self) -> bytes:
        return digest_many([
            b"repro/history/root", self.object_id.encode(),
            self.version.to_bytes(8, "big"), self.root,
        ])


class ObjectHistory:
    """A Merkle-rooted append-only operation log for one object."""

    def __init__(self, object_id: str) -> None:
        self.object_id = object_id
        self._tree = MerkleTree()
        self.operations: List[Operation] = []

    @property
    def version(self) -> int:
        """Number of operations applied."""
        return len(self.operations)

    @property
    def root(self) -> bytes:
        """Current history-tree root."""
        return self._tree.root()

    def append(self, op: Operation) -> int:
        """Apply one operation; returns the new version."""
        self.operations.append(op)
        self._tree.append(op.encode())
        return self.version

    def prove_operation(self, index: int) -> MerkleProof:
        """O(log n) membership proof for the op at ``index``."""
        return self._tree.prove(index)


class HistoryServer:
    """An honest provider hosting many object histories."""

    def __init__(self, signer: SchnorrSigner,
                 rng: Optional[_random.Random] = None) -> None:
        self._signer = signer
        self._rng = rng or _random.Random(0xF0C)
        self.histories: Dict[str, ObjectHistory] = {}

    @property
    def public_key(self) -> SchnorrPublicKey:
        """The provider's root-signing key (pinned by clients)."""
        return self._signer.public_key

    def _history(self, object_id: str) -> ObjectHistory:
        return self.histories.setdefault(object_id, ObjectHistory(object_id))

    def _sign_root(self, history: ObjectHistory) -> SignedRoot:
        unsigned = SignedRoot(object_id=history.object_id,
                              version=history.version, root=history.root,
                              signature=(0, 0))
        return SignedRoot(object_id=unsigned.object_id,
                          version=unsigned.version, root=unsigned.root,
                          signature=self._signer.sign(unsigned.signed_bytes(),
                                                      rng=self._rng))

    def submit(self, object_id: str, op: Operation) -> SignedRoot:
        """Append a client operation; returns the fresh signed root."""
        history = self._history(object_id)
        history.append(op)
        return self._sign_root(history)

    def fetch(self, object_id: str, since_version: int
              ) -> Tuple[List[Operation], SignedRoot]:
        """Operations after ``since_version`` plus the signed current root."""
        history = self._history(object_id)
        return (history.operations[since_version:], self._sign_root(history))


class ForkingServer(HistoryServer):
    """A malicious provider that equivocates between two client cliques.

    Clients in ``fork_members`` see one history; everyone else sees
    another.  Both are internally consistent and properly signed — the only
    way to catch the fork is cross-client view comparison, which is exactly
    what :class:`FortClient` implements.
    """

    def __init__(self, signer: SchnorrSigner, fork_members: Sequence[str],
                 rng: Optional[_random.Random] = None) -> None:
        super().__init__(signer, rng)
        self._fork_members = set(fork_members)
        self.shadow_histories: Dict[str, ObjectHistory] = {}

    def _history_for(self, object_id: str, client: str) -> ObjectHistory:
        if client in self._fork_members:
            return self.shadow_histories.setdefault(
                object_id, ObjectHistory(object_id))
        return self._history(object_id)

    def submit(self, object_id: str, op: Operation) -> SignedRoot:
        history = self._history_for(object_id, op.client)
        history.append(op)
        return self._sign_root(history)

    def fetch_as(self, object_id: str, client: str, since_version: int
                 ) -> Tuple[List[Operation], SignedRoot]:
        """The forked fetch: which history you get depends on who you are."""
        history = self._history_for(object_id, client)
        return (history.operations[since_version:], self._sign_root(history))


@dataclass
class ForkEvidence:
    """Non-repudiable proof of equivocation: two signed roots that conflict."""

    ours: SignedRoot
    theirs_version: int
    theirs_root: bytes
    description: str


class FortClient:
    """A fork-consistency-enforcing client replica of one object."""

    def __init__(self, name: str, object_id: str,
                 server_key: SchnorrPublicKey) -> None:
        self.name = name
        self.object_id = object_id
        self.server_key = server_key
        self.log: List[Operation] = []
        self.latest_signed: Optional[SignedRoot] = None

    # -- local recomputation --------------------------------------------------

    def _local_root(self, version: Optional[int] = None) -> bytes:
        ops = self.log if version is None else self.log[:version]
        return MerkleTree([op.encode() for op in ops]).root()

    @property
    def version(self) -> int:
        """How many operations this client has verified locally."""
        return len(self.log)

    # -- protocol ----------------------------------------------------------------

    def make_operation(self, payload: bytes) -> Operation:
        """An operation stamped with this client's current view."""
        return Operation(client=self.name, payload=payload,
                         seen_version=self.version,
                         seen_root=self._local_root())

    def _check_signed_root(self, signed: SignedRoot) -> None:
        if signed.object_id != self.object_id:
            raise IntegrityError("signed root for a different object")
        if not self.server_key.verify(signed.signed_bytes(),
                                      signed.signature):
            raise IntegrityError("server root signature invalid")

    def sync(self, new_ops: Sequence[Operation],
             signed: SignedRoot) -> Optional[ForkEvidence]:
        """Verify and absorb a fetch result.

        Checks, in order:

        1. the root signature (so later accusations are provable);
        2. that the server's claimed root matches our locally recomputed
           Merkle root over (our log + new ops) — catches suppressed or
           injected operations;
        3. every embedded ``(seen_version, seen_root)`` of other clients
           against *our* history at that version — catches forks the moment
           an op from the other side of the fork becomes visible.

        Returns :class:`ForkEvidence` (and leaves local state untouched)
        when equivocation is proven; raises :class:`IntegrityError` for
        non-equivocation corruption.
        """
        self._check_signed_root(signed)
        candidate_log = self.log + list(new_ops)
        candidate_root = MerkleTree(
            [op.encode() for op in candidate_log]).root()
        if signed.version != len(candidate_log) \
                or signed.root != candidate_root:
            return ForkEvidence(
                ours=signed, theirs_version=len(candidate_log),
                theirs_root=candidate_root,
                description=(
                    f"server-signed root at version {signed.version} does "
                    "not match the log it shipped"))
        for op in new_ops:
            if op.seen_version > len(candidate_log):
                return ForkEvidence(
                    ours=signed, theirs_version=op.seen_version,
                    theirs_root=op.seen_root,
                    description=(
                        f"{op.client!r} embeds a view from the future of "
                        "this history — we are on the short side of a fork"))
            expected = MerkleTree(
                [o.encode()
                 for o in candidate_log[:op.seen_version]]).root()
            if op.seen_root != expected:
                return ForkEvidence(
                    ours=signed, theirs_version=op.seen_version,
                    theirs_root=op.seen_root,
                    description=(
                        f"{op.client!r}'s embedded view at version "
                        f"{op.seen_version} diverges from ours — the "
                        "provider equivocated"))
        self.log = candidate_log
        self.latest_signed = signed
        return None

    def compare_views(self, other: "FortClient") -> Optional[ForkEvidence]:
        """Direct client-to-client view exchange (out-of-band fork check)."""
        if self.latest_signed is None or other.latest_signed is None:
            return None
        common = min(self.version, other.version)
        ours = self._local_root(common)
        theirs = other._local_root(common)
        if ours != theirs:
            return ForkEvidence(
                ours=self.latest_signed, theirs_version=common,
                theirs_root=theirs,
                description=(
                    f"{self.name!r} and {other.name!r} hold divergent "
                    f"histories at common version {common}"))
        return None
