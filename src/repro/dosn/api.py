"""The high-level DOSN facade: one object, every architecture.

:class:`DosnNetwork` wires users, a storage architecture, and encryption
policy together so examples and experiments read like the scenarios in the
paper::

    net = DosnNetwork(architecture="dht", seed=7)
    alice, bob = net.add_user("alice"), net.add_user("bob")
    net.befriend("alice", "bob")
    cid = net.post("alice", "hello distributed world!")
    feed = net.feed("bob")             # fetch + decrypt + verify
    report = net.exposure_report()     # who could observe what

Architectures (the Section II taxonomy): ``central`` (baseline provider),
``dht`` (Chord + replication), ``federation`` (pods), ``local``
(owner-only storage).

Configuration beyond ``architecture``/``seed`` lives in the keyword-only
:class:`DosnConfig`::

    net = DosnNetwork(config=DosnConfig(architecture="dht", seed=7,
                                        replication=3, tracing=True))

With ``tracing=True`` every ``post``/``read``/``feed``/``befriend`` opens a
span on the fabric tracer, nesting the overlay, storage and crypto spans
beneath it — experiment E13 builds its cost-breakdown tables from exactly
this tree.

Reads return a typed :class:`~repro.dosn.results.ReadResult` carrying
the verified post plus its provenance (``cache``/``quorum``/``bare``,
degraded or not).  ``DosnConfig(cache=CacheConfig(...))`` turns on the
hot-path read machinery of :mod:`repro.cache`: per-reader verified-
content caching invalidated by the author's hash-chain head, batched
:meth:`StorageBackend.get_many` feed fan-out, and social prefetching —
all strictly off by default, so every committed experiment table
regenerates byte-identically with the cache disabled.

:meth:`DosnNetwork.__init__` makes every choice the configuration implies,
once: the architecture picks the :class:`StorageBackend` that owns what
differs between architectures, the cache setting binds the read path, the
feed and the prefetch step.  No operation asks again.
"""

from __future__ import annotations

import random as _random
from dataclasses import dataclass, replace as _dc_replace
from functools import partial
from typing import Dict, List, Optional, Sequence, Tuple

import networkx as nx

from repro.adversary.config import AdversaryConfig
from repro.cache import CacheConfig, SocialPrefetcher, VerifiedContentCache
from repro.dosn.feed import (FeedReport, assemble_feed, cache_hit,
                             sync_feed, sync_friends)
from repro.dosn.provider import CentralProvider, ExposureReport
from repro.dosn.results import ReadResult
from repro.dosn.storage import (CentralBackend, DHTBackend, FetchedBlob,
                                FederationBackend, LocalBackend,
                                StorageBackend, fetch_each)
from repro.dosn.user import DosnUser
from repro.dosn.identity import KeyRegistry
from repro.exceptions import IntegrityError, OverlayError
from repro.fabric import Fabric
from repro.faults.overload import OverloadConfig
from repro.membership import MembershipConfig, SwimMembership
from repro.overlay.chord import ChordRing
from repro.overlay.federation import FederatedNetwork
from repro.stack import (AclLayer, ContentItem, IntegrityLayer, LayerSpec,
                         PlacementLayer, ProtectionStack, SystemSpec,
                         register_system)
from repro.storage2 import (AntiEntropyDaemon, ReplicatedStore,
                            ReplicationConfig)

ARCHITECTURES = ("central", "dht", "federation", "local")

__all__ = ["ARCHITECTURES", "DOSN_SPEC", "DosnConfig", "DosnNetwork"]

#: The reference network's declared pipeline (Table I rows it runs).
DOSN_SPEC = register_system(SystemSpec(
    name="repro.dosn",
    citation="this reproduction's reference model",
    overlay="pluggable (central / Chord DHT / federation / local)",
    layers=(
        LayerSpec("integrity", "Schnorr-signed hash-chained timeline",
                  table1_rows=("Integrity of data owner and data content",
                               "Historical integrity"),
                  detail="a post's cid covers every document field; the "
                         "author's signed chain entry listing it is the "
                         "post's one signature"),
        LayerSpec("acl", "friend-group symmetric encryption",
                  table1_rows=("Symmetric key encryption",),
                  detail="one StreamCipher group key per author, "
                         "distributed out of band"),
        LayerSpec("placement", "pluggable storage backend",
                  detail="central provider, replicated Chord DHT, "
                         "federation pods, or owner-local"),
    ),
    notes="the configurable baseline the experiments sweep"))


@dataclass(frozen=True)
class DosnConfig:
    """Keyword-only configuration surface for :class:`DosnNetwork`; being
    frozen, one config can parameterize a whole sweep
    (:meth:`with_overrides`)."""

    #: one of :data:`ARCHITECTURES`
    architecture: str = "dht"
    #: master seed — every random stream in the network derives from it
    seed: int = 0
    #: encrypt posts for the author's friend group before storage
    encrypt_content: bool = True
    #: replica-set size for the DHT architecture.  An ``int`` keeps the
    #: legacy first-responder semantics; a
    #: :class:`repro.storage2.ReplicationConfig` opts into the verified
    #: quorum store (W-of-N writes, R-of-N verified reads, and — when its
    #: ``repair_interval`` is set — the anti-entropy daemon)
    replication: "int | ReplicationConfig" = 2
    #: pod count for the federation architecture
    federation_pods: int = 4
    #: collect virtual-time spans on the fabric tracer
    tracing: bool = False
    #: also record segregated wall-clock span durations (implies tracing)
    wall_clock: bool = False
    #: route DHT storage RPCs through a :class:`ReliableChannel`
    resilient: bool = False
    #: run a SWIM-style failure detector (:mod:`repro.membership`) and use
    #: it — instead of the churn oracle — as the liveness source for
    #: routing, the resilient channel, and the anti-entropy daemon.
    #: DHT architecture only; ``None`` keeps the legacy oracle paths.
    membership: Optional[MembershipConfig] = None
    #: hot-path read caching (:mod:`repro.cache`): per-reader verified-
    #: content LRU + batched feed fan-out + social prefetch.  ``None``
    #: (the default) keeps every read cold and every legacy code path —
    #: including RNG draws and span order — untouched.
    cache: Optional[CacheConfig] = None
    #: accepted constant (fan-outs always pay their critical path), kept
    #: only because the perf workload passes it (ROADMAP 4c follow-up)
    concurrent: bool = True
    #: overload protection (:mod:`repro.faults.overload`): per-peer
    #: service queues with load shedding, per-operation deadlines through
    #: lookups / quorum reads / feed fan-out, a shared retry budget, and
    #: adaptive attempt timeouts.  ``None`` (the default) keeps the
    #: fair-weather fabric: no service state, no new RNG draws.
    overload: Optional[OverloadConfig] = None
    #: routing-layer adversary (:mod:`repro.adversary`): a hash-selected
    #: fraction of overlay peers misroute / eclipse / drop lookups, and
    #: an :attr:`~repro.adversary.AdversaryConfig.defense` switches the
    #: ring to certified node IDs + disjoint-path voting + quarantine.
    #: ``None`` (the default) keeps lookups trusting; an installed
    #: adversary draws no RNG (its decisions are hash-derived).
    adversary: Optional[AdversaryConfig] = None

    def __post_init__(self) -> None:
        if self.architecture not in ARCHITECTURES:
            raise OverlayError(
                f"unknown architecture {self.architecture!r}; "
                f"pick from {ARCHITECTURES}")
        if self.membership is not None and self.architecture != "dht":
            raise OverlayError(
                "membership requires the dht architecture (the detector "
                "rides on overlay peers)")
        if self.adversary is not None and self.architecture != "dht":
            raise OverlayError(
                "adversary requires the dht architecture (the attacks "
                "target overlay routing)")
        if not self.concurrent:
            raise OverlayError(
                "the serial-sum latency model is gone: fan-outs always pay "
                "their critical path (concurrent must stay True)")

    def with_overrides(self, **changes) -> "DosnConfig":
        """A copy with some fields replaced (sweep helper)."""
        return _dc_replace(self, **changes)


class DosnNetwork:
    """A complete simulated (D)OSN."""

    def __init__(self, architecture: Optional[str] = None,
                 seed: Optional[int] = None, *,
                 config: Optional[DosnConfig] = None,
                 fabric: Optional[Fabric] = None) -> None:
        overrides = {name: value for name, value
                     in (("architecture", architecture), ("seed", seed))
                     if value is not None}
        config = config if config is not None else DosnConfig()
        if overrides:
            config = config.with_overrides(**overrides)
        self.config = config
        self.architecture = config.architecture
        self.encrypt_content = config.encrypt_content
        if fabric is None:
            fabric = Fabric.create(
                seed=config.seed,
                tracing=config.tracing or config.wall_clock,
                wall_clock=config.wall_clock,
                resilient=config.resilient,
                overload=config.overload,
                adversary=config.adversary)
        self.fabric = fabric
        self.sim = fabric.sim
        self.network = fabric.network
        self.tracer = fabric.tracer
        self.metrics = fabric.metrics
        self.registry = KeyRegistry()
        self.users: Dict[str, DosnUser] = {}
        self.graph = nx.Graph()
        self.rng = _random.Random(config.seed)
        self.provider: Optional[CentralProvider] = None
        self.repair_daemon: Optional[AntiEntropyDaemon] = None
        self.membership: Optional[SwimMembership] = None
        # the one architecture decision: the backend owns the rest
        if config.architecture == "central":
            self.provider = CentralProvider()
            self.storage: StorageBackend = CentralBackend(self.provider)
        elif config.architecture == "dht":
            if config.membership is not None:
                # Built before the store/daemon so both auto-discover it
                # from the fabric as their liveness source.
                self.membership = SwimMembership(fabric)
            rep = config.replication
            quorum = None
            if isinstance(rep, ReplicationConfig):
                self.ring = ChordRing(fabric, replication=rep.n)
                quorum = ReplicatedStore(
                    self.ring, rep, registry=self.registry,
                    signer_of=lambda name: self.users[name].identity.signer)
                if rep.repair_interval is not None:
                    self.repair_daemon = AntiEntropyDaemon(
                        quorum, rep.repair_interval)
                    self.repair_daemon.start()
            else:
                self.ring = ChordRing(fabric, replication=rep)
            self.storage = DHTBackend(self.ring, quorum=quorum,
                                      membership=self.membership)
        elif config.architecture == "federation":
            self.federation = FederatedNetwork(
                self.network,
                [f"pod{i}" for i in range(config.federation_pods)])
            self.storage = FederationBackend(self.federation)
        else:
            self.storage = LocalBackend()
        #: cid -> (author, text, tags, sequence): whose post an observer
        #: stores, and enough to reseal it on :meth:`repost`
        self._posts: Dict[str, Tuple[str, str, Tuple[str, ...], int]] = {}
        self.stack = self._build_stack(config)
        # the one cache decision.  Any cache config batches the feed's
        # read (E16 prices batching alone with capacity_per_reader=0).
        self._feed_fetch = (self._get_many if config.cache is not None
                            else partial(fetch_each, self._fetch_one))
        #: the per-reader verified-content cache (``None`` when cold)
        self.cache: Optional[VerifiedContentCache] = None
        #: warms caches along social edges (``None`` without a cache)
        self.prefetcher: Optional[SocialPrefetcher] = None
        self._read, self._feed, self._warm_pair = (
            self._read_cold, self._feed_cold, lambda a, b: None)
        if config.cache is not None and config.cache.caching:
            self.cache = VerifiedContentCache(
                config.cache.capacity_per_reader, cache_hit,
                metrics=self.metrics)
            self.prefetcher = SocialPrefetcher(
                self.cache, fetch_many=self._get_many,
                open_post=self._open_for,
                metrics=self.metrics, tracer=self.tracer)
            self._read, self._feed, self._warm_pair = (
                self._read_cached, self._feed_cached, self._prefetch_pair)

    def _build_stack(self, config: DosnConfig) -> ProtectionStack:
        """Assemble the network's :class:`ProtectionStack`.

        Hooks delegate to :class:`DosnUser` and the storage backend.  The
        placement layer's ``storage.put``/``storage.get`` spans are E13's;
        metrics stay off because the fabric tracer prices every phase.
        """
        layers = DOSN_SPEC.layers
        return ProtectionStack([
            IntegrityLayer(post=self._layer_seal, read=self._layer_verify,
                           spec=layers[0]),
            AclLayer(post=self._layer_protect, read=self._layer_unprotect,
                     spec=layers[1]),
            PlacementLayer(post=self._layer_store, read=self._layer_fetch,
                           spec=layers[2],
                           span_post="storage.put", span_read="storage.get",
                           span_attrs={"backend": config.architecture}),
        ], spec=DOSN_SPEC, tracer=self.tracer)

    # -- stack layer hooks ---------------------------------------------------------

    def _layer_seal(self, item: ContentItem) -> None:
        user = self.users[item.author]
        item.cid, item.payload = user.seal_post(
            item.meta["text"], item.meta["tags"])

    def _layer_protect(self, item: ContentItem) -> None:
        item.payload = self.users[item.author].protect_document(item.payload)

    def _layer_store(self, item: ContentItem) -> None:
        user = self.users[item.author]
        self.storage.put(item.author, item.cid, item.payload,
                         recipients=sorted(user.friends))

    def _layer_fetch(self, item: ContentItem) -> None:
        # fetch_blob issues exactly the RPCs .get() would (legacy tables
        # depend on that) but keeps the provenance for the ReadResult.
        fetched = self.storage.fetch_blob(item.reader, item.cid)
        item.payload = fetched.blob
        item.meta["fetched"] = fetched

    def _layer_unprotect(self, item: ContentItem) -> None:
        item.payload = self.users[item.reader].unlock(item.author,
                                                      item.payload)

    def _layer_verify(self, item: ContentItem) -> None:
        item.result = self.users[item.reader].verify_document(
            item.author, item.payload, expected_cid=item.cid)

    # -- the read plumbing the cache decision binds --------------------------------

    def _view_of(self, reader: str, author: str):
        """Sync and return ``reader``'s chain-verified view of ``author``;
        ``None`` (the cache then refuses to serve) when their chain fails
        to extend the view."""
        user = self.users[reader]
        try:
            user.sync_timeline(self.users[author])
        except IntegrityError:
            return None
        return user.views[author]

    def _fetch_one(self, reader: str, cid: str) -> FetchedBlob:
        """One blob through the stack's placement layer (a cold feed)."""
        item = ContentItem(author="", reader=reader, cid=cid)
        self.stack.read(item, only=("placement",))
        return item.meta["fetched"]

    def _get_many(self, reader: str, cids: List[str]) -> Dict[str, object]:
        """The batched storage read, under one span (the E16 hot path)."""
        with self.tracer.span("storage.get_many", reader=reader,
                              requested=len(cids)):
            return self.storage.get_many(reader, cids)

    def _open_for(self, reader: str, author: str, blob: bytes, cid: str):
        """Decrypt + verify one fetched blob through the stack's read path."""
        item = ContentItem(author=author, reader=reader, cid=cid,
                           payload=blob)
        self.stack.read(item, only=("acl", "integrity"))
        return item.result

    def _read_through(self, reader: str, author: str,
                      cid: str) -> Tuple[ReadResult, FetchedBlob]:
        """The whole stack's read of one post, and the blob it fetched."""
        item = ContentItem(author=author, reader=reader, cid=cid)
        self.stack.read(item)
        fetched = item.meta["fetched"]
        return ReadResult(item.result, verified=True,
                          degraded=fetched.degraded,
                          source=fetched.source), fetched

    def _read_cold(self, reader: str, author: str, cid: str) -> ReadResult:
        self._view_of(reader, author)    # integrity finds the cid on it
        return self._read_through(reader, author, cid)[0]

    def _read_cached(self, reader: str, author: str, cid: str) -> ReadResult:
        """A chain-validated hit, or the stack's read seeding the cache."""
        view = self._view_of(reader, author)
        entry = self.cache.lookup(reader, author, cid, view)
        if entry is not None:
            return entry.served.result
        result, fetched = self._read_through(reader, author, cid)
        if view is not None and not result.degraded:
            self.cache.insert(reader, author, cid, result.post, view,
                              version=fetched.version)
        return result

    def _assemble(self, reader: str, limit_per_friend: Optional[int],
                  report: FeedReport, listing, **cache) -> FeedReport:
        """Serve the synced feed through the bound fetcher (and cache
        ``lookup`` / ``insert``, when given)."""
        return assemble_feed(
            reader, report, listing, self._feed_fetch,
            partial(self._open_for, reader),
            limit_per_friend=limit_per_friend, **cache)

    def _feed_cold(self, reader: str,
                   limit_per_friend: Optional[int]) -> FeedReport:
        return self._assemble(reader, limit_per_friend, *sync_feed(
            self.users[reader], self.users, limit_per_friend))

    def _feed_cached(self, reader: str,
                     limit_per_friend: Optional[int]) -> FeedReport:
        """One pass over the friends: replay the reader's last steady
        feed if nothing it depends on has moved; else warm the reader's
        cache from the feed's own listing and serve the feed from it."""
        report, listing = sync_feed(self.users[reader], self.users,
                                    limit_per_friend)
        key = self.cache.feed_key(limit_per_friend, listing)
        if self.cache.replay(reader, key, report):
            return report
        requested = self.prefetcher.requested
        self.prefetcher.warm(reader, listing)
        self._assemble(reader, limit_per_friend, report, listing,
                       lookup=self.cache.lookup, insert=self.cache.insert)
        if self.prefetcher.requested == requested:
            self.cache.remember(reader, key, report)
        return report

    def _prefetch_pair(self, a: str, b: str) -> None:
        """Warm each side of a new friendship with the other's posts."""
        self.storage.ready()
        for reader, author in ((a, b), (b, a)):
            self.prefetcher.warm(reader, sync_friends(
                self.users[reader], self.users, (author,), []))

    # -- population -----------------------------------------------------------

    def add_user(self, name: str) -> DosnUser:
        """Create a user and enroll them in the architecture."""
        user = DosnUser(name, self.registry,
                        rng=_random.Random(f"{name}/{self.rng.random()}"),
                        encrypt_content=self.encrypt_content,
                        tracer=self.tracer)
        self.users[name] = user
        self.graph.add_node(name)
        self.storage.enroll(name)
        return user

    def befriend(self, a: str, b: str) -> None:
        """Create a mutual friendship (keys exchanged out-of-band).

        Both users must exist and differ (:class:`OverlayError`
        otherwise).  With a prefetcher enabled each side's cache is
        warmed with the new friend's newest posts right away — the social
        graph is the access predictor, and a fresh edge is the strongest
        signal.
        """
        if a == b:
            raise OverlayError(f"{a!r} cannot befriend themselves")
        self._require_users(a, b)
        with self.tracer.span("dosn.befriend", a=a, b=b):
            self.users[a].befriend(self.users[b])
            self.graph.add_edge(a, b)
            self.storage.record_edge(a, b)
        self._warm_pair(a, b)

    def _require_users(self, *names: str) -> None:
        """Raise :class:`OverlayError` on a name no user holds."""
        for name in names:
            if name not in self.users:
                raise OverlayError(f"unknown user {name!r}")

    def apply_social_graph(self, graph: nx.Graph) -> None:
        """Befriend along every edge of a (workload-generated) graph."""
        for a, b in graph.edges:
            self.befriend(str(a), str(b))

    # -- the social operations ----------------------------------------------------

    def post(self, author: str, text: str,
             tags: Sequence[str] = ()) -> str:
        """Author a post through the stack; returns its content id."""
        self._require_users(author)
        self.storage.ready()
        with self.tracer.span("dosn.post", author=author):
            item = ContentItem(author=author,
                               meta={"text": text, "tags": tags})
            self.stack.post(item)
            self._posts[item.cid] = (author, text, tuple(tags),
                                     self.users[author].posts_published - 1)
            return item.cid

    def repost(self, author: str, cid: str) -> str:
        """Overwrite a published post in place: same cid, fresh bytes.

        Content addressing pins the cid, but a fresh cipher nonce makes
        the stored blob differ, and the author's hash chain re-lists the
        cid — the signed announcement that makes
        every reader's cached copy provably stale
        (:meth:`repro.cache.VerifiedContentCache.lookup` evicts on it).
        On quorum backends the overwrite seals the next version, so
        Byzantine holders gain real stale history to replay.
        """
        self._require_users(author)
        record = self._posts.get(cid)
        if record is None:
            raise OverlayError(
                f"unknown content id {cid!r}: only posts published "
                "through this network can be reposted")
        owner, text, tags, sequence = record
        if owner != author:
            raise OverlayError(
                f"{author!r} cannot repost {owner!r}'s content")
        self.storage.ready()
        with self.tracer.span("dosn.repost", author=author):
            user = self.users[author]
            new_cid, document = user.reseal_post(text, tags, sequence)
            assert new_cid == cid  # the address is a function of the content
            blob = user.protect_document(document)
            self.storage.put(author, cid, blob,
                             recipients=sorted(user.friends))
            return cid

    def read(self, reader: str, author: str, cid: str) -> ReadResult:
        """Fetch, decrypt and verify one post as ``reader``.

        Returns a typed :class:`~repro.dosn.results.ReadResult` — the
        verified post under ``.post`` plus provenance (``source`` in
        ``cache``/``quorum``/``bare``, ``degraded``).  With caching
        enabled, a hit is served only after re-checking the entry against
        the author's current chain-verified head; misses run the full
        stack and seed the cache.
        """
        self._require_users(reader, author)
        self.storage.ready()
        with self.tracer.span("dosn.read", reader=reader, author=author):
            return self._read(reader, author, cid)

    def feed(self, reader: str,
             limit_per_friend: Optional[int] = None) -> FeedReport:
        """Assemble the reader's verified news feed.

        Each fetched blob is opened through the stack's ACL + integrity
        layers.  Without ``DosnConfig.cache`` the fetch pass runs the
        stack's placement layer once per cid; with it the remaining cids
        ride one :meth:`StorageBackend.get_many` call (one route / RPC per
        holder instead of one per post), and — unless
        ``capacity_per_reader`` is 0 — the prefetcher warms the reader's
        cache and chain-validated hits skip fetch + decrypt + verify.
        """
        self._require_users(reader)
        self.storage.ready()
        with self.tracer.span("dosn.feed", reader=reader):
            return self._feed(reader, limit_per_friend)

    # -- exposure accounting (experiment E8) -----------------------------------------

    def exposure_report(self) -> List[ExposureReport]:
        """Per-observer exposure: content/metadata/graph view fractions.

        Observers are providers (central), pods (federation) or storing
        peers (dht/local).  A stored blob counts toward ``content_view``
        only if it is readable by that observer: unencrypted, or the
        observer is the author/a friend holding the group key.
        ``graph_view`` is :meth:`StorageBackend.graph_view`.
        """
        posts, encrypted = self._posts, self.encrypt_content
        total_content = len(posts)
        reports: List[ExposureReport] = []
        for observer, stored in self.storage.observer_views().items():
            known = stored & posts.keys()
            user = self.users.get(observer)
            keys = user.friend_keys if user is not None else {}
            readable = sum(1 for cid in known if not encrypted
                           or posts[cid][0] == observer
                           or posts[cid][0] in keys)
            reports.append(ExposureReport(
                observer=observer,
                content_view=(readable / total_content
                              if total_content else 0.0),
                metadata_view=(len(known) / total_content
                               if total_content else 0.0),
                graph_view=self.storage.graph_view(observer, self.graph)))
        return reports

    def worst_observer(self) -> ExposureReport:
        """The single most-exposed observer (the paper's headline metric)."""
        return max(self.exposure_report(),
                   key=lambda r: (r.content_view, r.metadata_view,
                                  r.graph_view),
                   default=ExposureReport("nobody", 0.0, 0.0, 0.0))
