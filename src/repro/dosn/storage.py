"""Uniform storage backends over the Section II architectures.

:class:`DosnNetwork` talks to storage through one interface so the same
social workload can run against a centralized provider, a DHT, or a server
federation — which is what makes the E8 exposure comparison apples-to-
apples.  Every backend records *who ends up storing what*, feeding the
exposure reports.

The read side of the protocol has three entry points:

* :meth:`StorageBackend.get` — one blob, raising on failure (the
  original surface, unchanged);
* :meth:`StorageBackend.fetch_blob` — one blob *with provenance*
  (:class:`FetchedBlob`: source, quorum version, degraded flag), which
  is what the typed :class:`~repro.dosn.results.ReadResult` API reads;
* :meth:`StorageBackend.get_many` — the batched path: one call for a
  whole feed's worth of cids, returning exceptions as values so one
  unreachable replica cannot fail the batch.  The default implementation
  is a sequential fallback over :meth:`fetch_blob`; the DHT and
  federation backends override it to coalesce routing per holder
  (one route / one batch RPC per holder instead of one per cid).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.dosn.provider import CentralProvider, ExposureReport
from repro.exceptions import ReproError, StorageError
from repro.overlay.chord import ChordRing
from repro.overlay.federation import FederatedNetwork


@dataclass
class FetchedBlob:
    """One retrieved blob plus where (and how trustworthily) it came from.

    ``source`` is ``"quorum"`` when a verified quorum read produced the
    bytes and ``"bare"`` for first-responder/provider reads; the cache
    layer stamps ``"cache"`` at the API level, never here.  ``degraded``
    marks a below-quorum verified read
    (:attr:`repro.storage2.ReplicationConfig.degraded_reads`): the bytes
    verified, the freshness guarantee did not.
    """

    blob: bytes
    source: str = "bare"
    degraded: bool = False
    version: Optional[int] = None


class StorageBackend(abc.ABC):
    """Where content blobs live, and who can observe them there."""

    @abc.abstractmethod
    def put(self, author: str, cid: str, blob: bytes,
            recipients: Sequence[str] = ()) -> None:
        """Store a blob (recipients are used by delivery-based backends)."""

    @abc.abstractmethod
    def get(self, reader: str, cid: str) -> bytes:
        """Retrieve a blob on behalf of ``reader``."""

    @abc.abstractmethod
    def observer_views(self) -> Dict[str, Set[str]]:
        """observer name -> set of content ids it physically stores."""

    def fetch_blob(self, reader: str, cid: str) -> FetchedBlob:
        """Retrieve one blob with provenance (default: a bare ``get``)."""
        return FetchedBlob(self.get(reader, cid))

    def get_many(self, reader: str,
                 cids: Sequence[str]) -> Dict[str, object]:
        """Batched retrieval: ``cid -> FetchedBlob | ReproError``.

        Exceptions are returned as values (never raised) so a single
        unavailable cid cannot fail a whole feed's fetch pass.  This
        default is the sequential fallback every backend satisfies the
        contract with; overlay-backed backends override it to coalesce
        lookups per holder.
        """
        results: Dict[str, object] = {}
        for cid in cids:
            if cid in results:
                continue
            try:
                results[cid] = self.fetch_blob(reader, cid)
            except ReproError as exc:
                results[cid] = exc
        return results


class CentralBackend(StorageBackend):
    """All blobs at one provider (Section II-A)."""

    def __init__(self, provider: Optional[CentralProvider] = None) -> None:
        self.provider = provider or CentralProvider()

    def put(self, author: str, cid: str, blob: bytes,
            recipients: Sequence[str] = ()) -> None:
        self.provider.store(author, cid, blob)

    def get(self, reader: str, cid: str) -> bytes:
        return self.provider.fetch(reader, cid)

    def observer_views(self) -> Dict[str, Set[str]]:
        return {self.provider.name: self.provider.stored_ids()}


class DHTBackend(StorageBackend):
    """Blobs on a Chord ring with successor replication (Section II-B).

    Resilience comes from the ring's :class:`repro.fabric.Fabric`: build
    it with ``Fabric.create(resilient=True, ...)`` and every fetch and
    replication RPC routes through the :class:`ReliableChannel` (retries,
    breakers, hedged replica reads) — required for the backend to stay
    available under the E12 fault plans.

    Passing ``quorum=`` (a :class:`repro.storage2.ReplicatedStore` over
    the same ring) upgrades the backend to verified quorum semantics:
    puts seal signed version records and need W acks, gets verify every
    response and return the newest verified version's payload.  The
    legacy path is untouched when ``quorum`` is ``None``.

    Overload protection needs no backend plumbing: when the fabric
    carries a ``DosnConfig(overload=...)`` config, the ring's lookups
    and the quorum store's reads mint their own per-operation budgets
    (:meth:`Fabric.op <repro.fabric.Fabric.op>`), the channel enforces
    the retry budget, and
    the network sheds at saturated peers — a shed surfaces here as
    :class:`repro.exceptions.OverloadedError` from fetch paths.
    """

    def __init__(self, ring: ChordRing, quorum=None) -> None:
        self.ring = ring
        self.quorum = quorum
        #: cid -> the replica set chosen at put time; with a quorum store
        #: this aliases its placement map, so repair re-placements show up
        self.placements: Dict[str, List[str]] = (
            quorum.placements if quorum is not None else {})

    def put(self, author: str, cid: str, blob: bytes,
            recipients: Sequence[str] = ()) -> None:
        if author not in self.ring.nodes:
            raise StorageError(f"author {author!r} is not a ring member")
        if self.quorum is not None:
            self.quorum.put(author, cid, blob)
            return
        self.ring.put(author, cid, blob)
        self.placements[cid] = self.ring.replica_set(cid)

    def get(self, reader: str, cid: str) -> bytes:
        if self.quorum is not None:
            return self.quorum.get(reader, cid).payload
        value, _ = self.ring.get(reader, cid)
        return value

    def fetch_blob(self, reader: str, cid: str) -> FetchedBlob:
        if self.quorum is not None:
            result = self.quorum.get(reader, cid)
            return FetchedBlob(result.payload, source="quorum",
                               degraded=result.degraded,
                               version=result.version)
        value, _ = self.ring.get(reader, cid)
        return FetchedBlob(value)

    def get_many(self, reader: str,
                 cids: Sequence[str]) -> Dict[str, object]:
        """Coalesced batch read: one route / batch RPC per holder.

        With a quorum store the per-key holder probes are merged into one
        ``quorum_read_batch`` RPC per distinct holder; on the legacy ring
        the per-cid iterative lookups are merged into one route per
        distinct owner.  Verification semantics per cid are identical to
        the sequential path.
        """
        results: Dict[str, object] = {}
        if self.quorum is not None:
            for cid, got in self.quorum.get_many(reader, cids).items():
                if isinstance(got, Exception):
                    results[cid] = got
                else:
                    results[cid] = FetchedBlob(got.payload, source="quorum",
                                               degraded=got.degraded,
                                               version=got.version)
            return results
        for cid, got in self.ring.get_many(reader, cids).items():
            if isinstance(got, Exception):
                results[cid] = got
            else:
                results[cid] = FetchedBlob(got)
        return results

    def observer_views(self) -> Dict[str, Set[str]]:
        views: Dict[str, Set[str]] = {}
        for name, node in self.ring.nodes.items():
            views[name] = set(node.store.keys())
        return views


class FederationBackend(StorageBackend):
    """Blobs on home pods, federated to recipients' pods (Section II-B)."""

    def __init__(self, federation: FederatedNetwork) -> None:
        self.federation = federation

    def put(self, author: str, cid: str, blob: bytes,
            recipients: Sequence[str] = ()) -> None:
        self.federation.post(author, cid, blob, recipients)

    def get(self, reader: str, cid: str) -> bytes:
        return self.federation.fetch(reader, cid)

    def get_many(self, reader: str,
                 cids: Sequence[str]) -> Dict[str, object]:
        """One batched fetch RPC to the reader's home pod for all cids."""
        results: Dict[str, object] = {}
        for cid, got in self.federation.fetch_many(reader, cids).items():
            if isinstance(got, Exception):
                results[cid] = got
            else:
                results[cid] = FetchedBlob(got)
        return results

    def observer_views(self) -> Dict[str, Set[str]]:
        return {name: set(server.content.keys())
                for name, server in self.federation.servers.items()}


class LocalBackend(StorageBackend):
    """Owner-only storage: nothing leaves the author's machine.

    The availability-versus-privacy extreme point: zero exposure, but the
    content is only retrievable while the author is online (no replicas) —
    the trade-off Section I describes.
    """

    def __init__(self) -> None:
        self._stores: Dict[str, Dict[str, bytes]] = {}
        self.online: Dict[str, bool] = {}

    def put(self, author: str, cid: str, blob: bytes,
            recipients: Sequence[str] = ()) -> None:
        self._stores.setdefault(author, {})[cid] = blob
        self.online.setdefault(author, True)

    def get(self, reader: str, cid: str) -> bytes:
        for author, store in self._stores.items():
            if cid in store:
                if not self.online.get(author, True):
                    raise StorageError(
                        f"owner {author!r} is offline; {cid!r} unavailable")
                return store[cid]
        raise StorageError(f"{cid!r} not stored anywhere")

    def observer_views(self) -> Dict[str, Set[str]]:
        return {author: set(store.keys())
                for author, store in self._stores.items()}
