"""Uniform storage backends over the Section II architectures.

:class:`DosnNetwork` talks to storage through one interface so the same
social workload can run against a centralized provider, a DHT, or a server
federation — which is what makes the E8 exposure comparison apples-to-
apples.  Every backend records *who ends up storing what*, feeding the
exposure reports.

The read side of the protocol has two entry points:

* :meth:`StorageBackend.fetch_blob` — one blob *with provenance*
  (:class:`FetchedBlob`: source, quorum version, degraded flag), raising
  on failure; what every backend implements and what the typed
  :class:`~repro.dosn.results.ReadResult` API reads;
* :meth:`StorageBackend.get_many` — the batched path: one call for a
  whole feed's worth of cids, returning exceptions as values so one
  unreachable replica cannot fail the batch.  The default is
  :func:`fetch_each` over :meth:`fetch_blob`; the DHT and federation
  backends override it to coalesce routing per holder (one route / one
  batch RPC per holder instead of one per cid).

A backend also owns what else differs between architectures, so
:class:`~repro.dosn.api.DosnNetwork` asks which one it runs only when it
picks the backend: ``enroll``, ``ready``, ``record_edge``, ``graph_view``.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Set

import networkx as nx

from repro.dosn.provider import CentralProvider
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


def fetch_each(fetch_blob: Callable[[str, str], FetchedBlob], reader: str,
               cids: Sequence[str]) -> Dict[str, object]:
    """The :meth:`StorageBackend.get_many` contract, one cid at a time:
    ``cid -> FetchedBlob | ReproError``, each distinct cid fetched once,
    failures returned as values."""
    results: Dict[str, object] = {}
    for cid in cids:
        if cid in results:
            continue
        try:
            results[cid] = fetch_blob(reader, cid)
        except ReproError as exc:
            results[cid] = exc
    return results


def _blobs(fetched: Dict[str, object],
           wrap: Callable[[object], FetchedBlob]) -> Dict[str, object]:
    """A store's batch answer as the ``get_many`` contract: values
    wrapped into :class:`FetchedBlob`, exception values passed through."""
    return {cid: got if isinstance(got, Exception) else wrap(got)
            for cid, got in fetched.items()}


def _quorum_blob(result) -> FetchedBlob:
    """A verified :class:`~repro.storage2.ReplicatedStore` read."""
    return FetchedBlob(result.payload, source="quorum",
                       degraded=result.degraded, version=result.version)


class StorageBackend(abc.ABC):
    """Where content blobs live, and who can observe them there."""

    @abc.abstractmethod
    def put(self, author: str, cid: str, blob: bytes,
            recipients: Sequence[str] = ()) -> None:
        """Store a blob (recipients are used by delivery-based backends)."""

    @abc.abstractmethod
    def fetch_blob(self, reader: str, cid: str) -> FetchedBlob:
        """Retrieve one blob, with provenance, on behalf of ``reader``."""

    @abc.abstractmethod
    def observer_views(self) -> Dict[str, Set[str]]:
        """observer name -> set of content ids it physically stores."""

    def get_many(self, reader: str,
                 cids: Sequence[str]) -> Dict[str, object]:
        """Batched retrieval: ``cid -> FetchedBlob | ReproError``.

        Exceptions are returned as values (never raised) so a single
        unavailable cid cannot fail a whole feed's fetch pass.  This
        default is the sequential fallback every backend satisfies the
        contract with; overlay-backed backends override it to coalesce
        lookups per holder.
        """
        return fetch_each(self.fetch_blob, reader, cids)

    def enroll(self, name: str) -> None:
        """Admit a new user (nothing to join by default)."""

    def ready(self) -> None:
        """Make placement usable before an operation (always, by default)."""

    def record_edge(self, a: str, b: str) -> None:
        """Note a new friendship (no backend observes one by default)."""

    def graph_view(self, observer: str, graph: nx.Graph) -> float:
        """``observer``'s share of the edges (a peer knows its own)."""
        edges = graph.number_of_edges()
        if observer not in graph or not edges:
            return 0.0
        return graph.degree(observer) / edges


class CentralBackend(StorageBackend):
    """All blobs at one provider (Section II-A)."""

    def __init__(self, provider: Optional[CentralProvider] = None) -> None:
        self.provider = provider or CentralProvider()

    def put(self, author: str, cid: str, blob: bytes,
            recipients: Sequence[str] = ()) -> None:
        self.provider.store(author, cid, blob)

    def fetch_blob(self, reader: str, cid: str) -> FetchedBlob:
        return FetchedBlob(self.provider.fetch(reader, cid))

    def observer_views(self) -> Dict[str, Set[str]]:
        return {self.provider.name: self.provider.stored_ids()}

    def record_edge(self, a: str, b: str) -> None:
        self.provider.record_edge(a, b)

    def graph_view(self, observer: str, graph: nx.Graph) -> float:
        """The provider sees every friendship made through it."""
        edges = graph.number_of_edges()
        return len(self.provider.observed_edges) / edges if edges else 0.0


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
    response and return the newest verified version's payload.  Without
    it the ring's one replica read serves: one route, the routed owner's
    copy free, the other holders probed from the reader.

    Overload protection needs no backend plumbing: when the fabric
    carries a ``DosnConfig(overload=...)`` config, the ring's lookups
    and the quorum store's reads mint their own per-operation budgets
    (:meth:`Fabric.op <repro.fabric.Fabric.op>`), the channel enforces
    the retry budget, and
    the network sheds at saturated peers — a shed surfaces here as
    :class:`repro.exceptions.OverloadedError` from fetch paths.

    ``membership=`` (the fabric's :class:`~repro.membership.SwimMembership`)
    enrolls every user in the detector, which probes once the ring is built.
    """

    def __init__(self, ring: ChordRing, quorum=None,
                 membership=None) -> None:
        self.ring = ring
        self.quorum = quorum
        #: users joined since the finger tables were last built
        self._dirty = False
        # the one detector-or-not decision
        if membership is None:
            self._register = self._start_probing = lambda *name: None
        else:
            def start_probing() -> None:
                if len(membership.views) >= 2:
                    membership.start()

            self._register = membership.register
            self._start_probing = start_probing
        # the one bare-or-quorum decision: which store serves, and how
        # its answers become FetchedBlobs (the bare ring keeps no
        # placement map: observer_views() records who holds a cid)
        if quorum is not None:
            #: cid -> the replica set chosen at put time; aliases the
            #: quorum store's placement map, so repair re-placements
            #: show up
            self.placements: Dict[str, List[str]] = quorum.placements
            self._put, self._get = quorum.put, quorum.get
            self._get_many, self._blob = quorum.get_many, _quorum_blob
        else:
            self._put, self._get = ring.put, self._ring_get
            self._get_many, self._blob = ring.get_many, FetchedBlob

    def _ring_get(self, reader: str, cid: str) -> bytes:
        return self.ring.get(reader, cid)[0]

    def put(self, author: str, cid: str, blob: bytes,
            recipients: Sequence[str] = ()) -> None:
        if author not in self.ring.nodes:
            raise StorageError(f"author {author!r} is not a ring member")
        self._put(author, cid, blob)

    def fetch_blob(self, reader: str, cid: str) -> FetchedBlob:
        return self._blob(self._get(reader, cid))

    def get_many(self, reader: str,
                 cids: Sequence[str]) -> Dict[str, object]:
        """Coalesced batch read: one route / probe RPC per holder.

        With a quorum store each distinct holder is probed once for all
        the cids it holds; on the bare ring the per-cid iterative lookups
        are merged into one route per distinct owner.  Either way a
        one-cid :meth:`fetch_blob` is the same read over a batch of one.
        """
        return _blobs(self._get_many(reader, cids), self._blob)

    def observer_views(self) -> Dict[str, Set[str]]:
        views: Dict[str, Set[str]] = {}
        for name, node in self.ring.nodes.items():
            views[name] = set(node.store.keys())
        return views

    def enroll(self, name: str) -> None:
        """Join the ring (and the detector); routing is rebuilt lazily."""
        self.ring.add_node(name)
        self._register(name)
        self._dirty = True

    def ready(self) -> None:
        """Rebuild the finger tables after joins; then start probing."""
        if self._dirty:
            self.ring.build()
            self._dirty = False
            self._start_probing()


class FederationBackend(StorageBackend):
    """Blobs on home pods, federated to recipients' pods (Section II-B)."""

    def __init__(self, federation: FederatedNetwork) -> None:
        self.federation = federation

    def put(self, author: str, cid: str, blob: bytes,
            recipients: Sequence[str] = ()) -> None:
        self.federation.post(author, cid, blob, recipients)

    def fetch_blob(self, reader: str, cid: str) -> FetchedBlob:
        return FetchedBlob(self.federation.fetch(reader, cid))

    def get_many(self, reader: str,
                 cids: Sequence[str]) -> Dict[str, object]:
        """One batched fetch RPC to the reader's home pod for all cids."""
        return _blobs(self.federation.fetch_many(reader, cids), FetchedBlob)

    def observer_views(self) -> Dict[str, Set[str]]:
        return {name: set(server.content.keys())
                for name, server in self.federation.servers.items()}

    def enroll(self, name: str) -> None:
        """Home the user on a pod."""
        self.federation.register_user(name)

    def graph_view(self, observer: str, graph: nx.Graph) -> float:
        """A pod sees the friendships its posts were delivered along."""
        server = self.federation.servers.get(observer)
        edges = graph.number_of_edges()
        if server is None or not edges:
            return 0.0
        return len({tuple(sorted(edge))
                    for edge in server.observed_edges}) / edges


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

    def fetch_blob(self, reader: str, cid: str) -> FetchedBlob:
        for author, store in self._stores.items():
            if cid in store:
                if not self.online.get(author, True):
                    raise StorageError(
                        f"owner {author!r} is offline; {cid!r} unavailable")
                return FetchedBlob(store[cid])
        raise StorageError(f"{cid!r} not stored anywhere")

    def observer_views(self) -> Dict[str, Set[str]]:
        return {author: set(store.keys())
                for author, store in self._stores.items()}
