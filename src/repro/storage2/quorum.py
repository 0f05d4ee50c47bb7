"""The quorum-replicated store: W-of-N writes, verified R-of-N reads.

Where :meth:`ChordRing.get` trusts the first replica that answers, the
:class:`ReplicatedStore` treats every holder as a potential liar
(:mod:`repro.faults.byzantine`): each response is decoded and checked
against the author's signature before it counts toward the read quorum
(byte-identical copies within one read share one check), the newest
verified version wins, and holders caught serving older state
are repaired in the read path.  Every probe, store, and repair push is an
accounted RPC on the simulated fabric, so E14's availability numbers pay
for the quorum traffic they claim.

Detection counters (via ``fabric.metrics`` / :mod:`repro.obs`):

* ``storage.byzantine_rejects`` — responses that failed verification
* ``storage.read_repairs``      — holder copies fixed by the read path
* ``storage.quorum_writes``     — write attempts (acks on the span)
"""

from __future__ import annotations

import random as _random
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.exceptions import (CryptoError, DeadlineExceededError,
                              IntegrityError, LookupError_, OverloadedError,
                              QuorumWriteError, ReplicaIntegrityError,
                              StorageError)
from repro.faults.byzantine import CorruptBlob, Equivocate, StaleServe
from repro.overlay.simulator import Reply, critical_path
from repro.storage2.config import ReplicationConfig
from repro.storage2.record import GENESIS, StoredVersion, seal_version


@dataclass
class ReadResult:
    """Outcome of one verified quorum read.

    ``degraded=True`` marks a :attr:`ReplicationConfig.degraded_reads`
    fallback: the payload is the newest copy that *verified* (signature
    checked — never tampered bytes) but fewer than ``R`` holders
    answered, so the usual freshness guarantee does not apply.

    ``elapsed`` is the read's client-visible latency: the critical path
    to the R-th *verified* response.  Read-repair pushes are background
    traffic and excluded.
    """

    payload: bytes
    version: int
    author: str
    holder: str          # who served the winning (newest verified) copy
    verified: int        # responses that passed verification
    rejected: int        # responses that failed verification
    repaired: int        # holder copies fixed by read-repair
    degraded: bool = False
    elapsed: float = 0.0


class ReplicatedStore:
    """Verified quorum reads/writes over a Chord ring's replica sets.

    ``registry``/``signer_of`` wire the store into an existing identity
    world (:class:`DosnNetwork` passes its key registry and a callback to
    its users' signers); standalone uses (benchmarks, tests) omit both
    and the store mints TOY identities on first write, registering their
    public halves itself.
    """

    def __init__(self, ring, config: Optional[ReplicationConfig] = None,
                 registry=None,
                 signer_of: Optional[Callable[[str], object]] = None) -> None:
        # Deferred: repro.dosn.api imports this package, so pulling
        # repro.dosn.identity at module scope would be a cycle.
        from repro.dosn.identity import KeyRegistry
        self.ring = ring
        self.config = config or ReplicationConfig()
        self.fabric = ring.fabric
        self.network = ring.network
        self.sim = self.fabric.sim
        self.metrics = self.network.metrics
        self.registry = registry if registry is not None else KeyRegistry()
        #: ``author -> signer``: the identity world's, or TOY identities
        #: the store mints on first write
        self._signer = signer_of if signer_of is not None \
            else self._own_signer
        self._local_identities: Dict[str, object] = {}
        self._rng: Optional[_random.Random] = None
        #: key -> current replica holders (repair may re-place these)
        self.placements: Dict[str, List[str]] = {}
        #: writer-side chain state: latest version number / record hash
        self._versions: Dict[str, int] = {}
        self._prev_hash: Dict[str, bytes] = {}
        #: (holder, key) -> every encoded record the holder ever accepted,
        #: oldest first — the material Byzantine holders replay from
        self._history: Dict[Tuple[str, str], List[bytes]] = {}

    # -- plumbing ---------------------------------------------------------------

    @property
    def rng(self) -> _random.Random:
        """Store-scoped RNG, split lazily so legacy streams never move."""
        if self._rng is None:
            self._rng = self.sim.split_rng("storage2")
        return self._rng

    def _own_signer(self, author: str):
        from repro.dosn.identity import create_identity
        identity = self._local_identities.get(author)
        if identity is None:
            identity = create_identity(author, rng=self.rng)
            self._local_identities[author] = identity
            self.registry.register(identity)
        return identity.signer

    def holders_of(self, key: str) -> List[str]:
        """The current replica holders (placement, else the ring's set)."""
        placed = self.placements.get(key)
        if placed is not None:
            return list(placed)
        return self.ring.replica_set(key)[:self.config.n]

    def store_at(self, holder: str, key: str, encoded: bytes) -> bool:
        """Accept a record at a holder; returns whether bytes changed.

        Keeps the holder's replay history consistent with its store: a
        key missing from ``node.store`` means a crash wiped the state, so
        the history restarts — a restarted holder cannot replay versions
        it no longer has.
        """
        node = self.ring.nodes.get(holder)
        if node is None:
            return False
        if key not in node.store:
            self._history[(holder, key)] = []
        changed = node.store.get(key) != encoded
        node.store[key] = encoded
        if changed:
            self._history.setdefault((holder, key), []).append(encoded)
        return changed

    def serve(self, holder: str, reader: str, key: str) -> bytes:
        """What ``holder`` answers ``reader`` with — honest or Byzantine.

        Active holder faults (plan order) rewrite the response: stale/
        equivocating holders replay from their accepted-record history,
        corrupting holders garble the bytes.  Deterministic per
        ``(plan seed, holder, key, reader)``.
        """
        blob = self.ring.nodes[holder].store[key]
        history = self._history.get((holder, key), [])
        for fault in self.network.holder_faults(holder, self.sim.now):
            if not fault.applies_to(key):
                continue
            if isinstance(fault, (StaleServe, Equivocate)) and history:
                index = fault.pick_version(holder, key, reader, len(history))
                blob = history[index]
            elif isinstance(fault, CorruptBlob) \
                    and fault.garbles(holder, key, reader):
                blob = CorruptBlob.garble(blob)
        return blob

    def _verify(self, key: str, blob: bytes) -> StoredVersion:
        """Decode + authenticate one served response (or raise)."""
        record = StoredVersion.decode(blob)
        if record.key != key:
            raise IntegrityError(
                f"record is for {record.key!r}, not {key!r}")
        verify_key = self.registry.get(record.author).verify_key
        if not record.verify(verify_key):
            raise IntegrityError("record signature does not verify")
        return record

    def _verify_once(self, key: str, blob: bytes,
                     seen: Dict[Tuple[str, bytes], object]) -> object:
        """:meth:`_verify`'s record, or the error it raised, as a value.

        Honest holders of a key serve the same bytes, so ``seen`` — one
        per :meth:`get` call or :meth:`get_many` batch, never kept across
        reads — decodes and verifies each distinct served blob once.
        """
        if (key, blob) not in seen:
            try:
                seen[key, blob] = self._verify(key, blob)
            except (IntegrityError, CryptoError) as exc:
                seen[key, blob] = exc
        return seen[key, blob]

    # -- writes -----------------------------------------------------------------

    def put(self, author: str, key: str, payload: bytes) -> StoredVersion:
        """Seal the next version and store it on the replica set.

        Routes to the owner (accounted lookup), pushes the record to every
        holder, and requires ``W`` acks; fewer raises
        :class:`QuorumWriteError` and leaves the writer's chain state
        unchanged, so a retry re-seals the same version number.
        """
        with self.network.tracer.span("storage2.put", key=key,
                                      author=author) as span:
            holders = self.holders_of(key)
            try:
                coordinator = self.ring.lookup(author, key).owner
            except LookupError_:
                coordinator = author  # routing down: push directly
            version = self._versions.get(key, 0) + 1
            record = seal_version(
                self._signer(author), key, version,
                self._prev_hash.get(key, GENESIS), author, payload,
                rng=self.rng)
            encoded = record.encode()
            acks = 0
            local_acks = 0
            pushes: List[float] = []  # every push's latency
            acked: List[float] = []   # those of the pushes that landed
            with self.network.tracer.span(
                    "storage2.put.fanout", parallel=True, key=key,
                    holders=len(holders)) as fanout:
                for holder in holders:
                    if holder == coordinator:
                        node = self.ring.nodes.get(holder)
                        if node is not None and node.online:
                            self.store_at(holder, key, encoded)
                            acks += 1
                            local_acks += 1
                        continue
                    reply = self.fabric.call(coordinator, holder,
                                             "quorum_store")
                    pushes.append(reply.latency)
                    if reply.ok:
                        self.store_at(holder, key, encoded)
                        acks += 1
                        acked.append(reply.latency)
                # The writer returns at the W-th ack; pushes past it (and
                # an already-satisfied local quorum) complete in the
                # background.
                need = max(0, self.config.w - local_acks)
                fanout.settle_cost(critical_path(need, acked, pushes))
            span.set_attr("version", version)
            span.set_attr("acks", acks)
            self.metrics.inc("storage.quorum_writes")
            if acks < self.config.w:
                raise QuorumWriteError(
                    f"write of {key!r} v{version} got {acks} acks, "
                    f"needs W={self.config.w}")
            self._versions[key] = version
            self._prev_hash[key] = record.record_hash()
            self.placements[key] = list(holders)
            return record

    # -- reads ------------------------------------------------------------------

    def get(self, reader: str, key: str) -> ReadResult:
        """Verified quorum read: newest of >= R verified responses wins.

        Every holder is probed (an accounted RPC each; extra probes count
        as hedges like the ring's replica reads); responses failing
        verification are rejected and counted, never returned.  Verified
        holders serving an older version get the winner pushed back
        (read-repair).  Raises :class:`ReplicaIntegrityError` when data
        was served but nothing verified, :class:`StorageError` when the
        quorum is short.

        With an overload config on the fabric the read carries a
        deadline: probes stop being issued once the budget is spent
        (each holder's channel call sees only the remainder), and an
        exhausted budget that costs the quorum raises
        :class:`DeadlineExceededError`.  A quorum missed because holders
        *shed* the probes raises :class:`OverloadedError` — the caller
        learns the replicas are saturated, not gone.
        """
        with self.network.tracer.span("storage2.get", key=key,
                                      reader=reader) as span:
            ctx = self.fabric.op(reader)
            responses: List[Tuple[str, Optional[StoredVersion]]] = []
            seen: Dict[Tuple[str, bytes], object] = {}
            rejected = 0
            probed = 0
            sheds = 0
            deadline_hit = False
            probes: List[float] = []    # every probe's latency
            verified: List[float] = []  # those whose response verified
            with self.network.tracer.span("storage2.get.fanout",
                                          parallel=True, key=key) as fanout:
                for holder in ctx.order(self.holders_of(key)):
                    node = self.ring.nodes.get(holder)
                    if node is None or key not in node.store:
                        continue  # crashed holders lost key with their state
                    if ctx.expired("quorum_read"):
                        deadline_hit = True
                        break  # stop issuing probes nobody will wait for
                    if probed > 0:
                        self.metrics.inc("net.hedges", kind="quorum_read")
                    probed += 1
                    reply = ctx.call(reader, holder, "quorum_read",
                                     fanout=True)
                    probes.append(reply.latency)
                    if reply.cause == "overloaded":
                        sheds += 1
                    if not reply.ok:
                        continue
                    record = self._verify_once(
                        key, self.serve(holder, reader, key), seen)
                    if not isinstance(record, StoredVersion):
                        rejected += 1
                        self.metrics.inc("storage.byzantine_rejects")
                        responses.append((holder, None))
                        continue  # a rejected response cannot count toward R
                    responses.append((holder, record))
                    verified.append(reply.latency)
                # The client returns at the R-th *verified* response; an
                # unmet quorum waits out every probe.
                elapsed = critical_path(self.config.r, verified, probes)
                fanout.settle_cost(elapsed)
            try:
                return self._settle(reader, key, responses, rejected, span,
                                    elapsed=elapsed)
            except StorageError as exc:
                if deadline_hit:
                    raise DeadlineExceededError(
                        f"quorum read of {key!r} ran out of budget after "
                        f"{probed} probes") from exc
                if sheds:
                    raise OverloadedError(
                        f"quorum for {key!r} not met: {sheds} of {probed} "
                        "probes were shed by overloaded holders") from exc
                raise

    def _settle(self, reader: str, key: str,
                responses: List[Tuple[str, Optional[StoredVersion]]],
                rejected: int, span=None,
                elapsed: float = 0.0) -> ReadResult:
        """Winner selection, degraded fallback and read-repair for one key.

        Shared verbatim between :meth:`get` and :meth:`get_many` so the
        batched path cannot drift from the sequential semantics; only the
        probe plan (how the responses were gathered) differs between the
        two.
        """
        verified = [(h, r) for h, r in responses if r is not None]
        if span is not None:
            span.set_attr("verified", len(verified))
            span.set_attr("rejected", rejected)
        if not verified:
            if rejected:
                raise ReplicaIntegrityError(
                    f"no holder served a valid copy of {key!r} "
                    f"({rejected} responses rejected)")
            raise StorageError(
                f"key {key!r} unavailable: no reachable replica "
                "holds it")
        if len(verified) < self.config.r:
            if self.config.degraded_reads:
                # DegradedRead: the quorum is unreachable but at
                # least one copy verified — serve it flagged rather
                # than failing.  Staleness is possible; tampered
                # bytes are not (only verified responses compete).
                best_holder, best = max(
                    verified,
                    key=lambda pair: (pair[1].version,
                                      pair[1].record_hash()))
                self.metrics.inc("storage.degraded_reads")
                if span is not None:
                    span.set_attr("degraded", True)
                    span.set_attr("version", best.version)
                return ReadResult(
                    payload=best.payload, version=best.version,
                    author=best.author, holder=best_holder,
                    verified=len(verified), rejected=rejected,
                    repaired=0, degraded=True, elapsed=elapsed)
            raise StorageError(
                f"read quorum for {key!r} not met: {len(verified)} "
                f"verified responses, needs R={self.config.r}")
        best_holder, best = max(
            verified,
            key=lambda pair: (pair[1].version, pair[1].record_hash()))
        repaired = 0
        encoded = best.encode()
        for holder, record in responses:
            if record is not None and record.version >= best.version:
                continue
            ok = self.fabric.call(reader, holder, "read_repair").ok
            if ok and self.store_at(holder, key, encoded):
                repaired += 1
                self.metrics.inc("storage.read_repairs")
        if span is not None:
            span.set_attr("version", best.version)
            span.set_attr("repaired", repaired)
        return ReadResult(
            payload=best.payload, version=best.version,
            author=best.author, holder=best_holder,
            verified=len(verified), rejected=rejected,
            repaired=repaired, elapsed=elapsed)

    def get_many(self, reader: str, keys) -> Dict[str, object]:
        """Batched verified reads: one probe RPC per holder, not per key.

        The verification, winner-selection, degraded-fallback and
        read-repair semantics per key are exactly :meth:`get`'s (both run
        through :meth:`_settle`); what the batch changes is the wire
        plan — every live holder is probed **once** with a
        ``quorum_read_batch`` RPC covering all the keys it holds, instead
        of once per key.  Returns ``key -> ReadResult | ReproError``:
        failures come back as exception values, so one short quorum
        cannot fail the whole batch.
        """
        results: Dict[str, object] = {}
        ordered: List[str] = []
        for key in keys:
            if key not in results:
                results[key] = None  # placeholder; settled below
                ordered.append(key)
        ctx = self.fabric.op(reader)
        want: Dict[str, List[str]] = {}   # holder -> keys it should serve
        for key in ordered:
            for holder in ctx.order(self.holders_of(key)):
                node = self.ring.nodes.get(holder)
                if node is None or key not in node.store:
                    continue  # crashed holders lost the key with their state
                want.setdefault(holder, []).append(key)
        with self.network.tracer.span("storage2.get_many", reader=reader,
                                      keys=len(ordered),
                                      holders=len(want)) as span:
            responses: Dict[str, List[Tuple[str, Optional[StoredVersion]]]]
            responses = {key: [] for key in ordered}
            rejected: Dict[str, int] = {key: 0 for key in ordered}
            #: key -> the replies of the holders probed for it, and the
            #: latencies of those whose response for *that key* verified
            key_probes: Dict[str, List[Reply]] = {k: [] for k in ordered}
            key_verified: Dict[str, List[float]] = {k: [] for k in ordered}
            seen: Dict[Tuple[str, bytes], object] = {}
            reachable = 0
            deadline_hit = False
            batch_probes: List[float] = []
            with self.network.tracer.span(
                    "storage2.get_many.fanout", parallel=True,
                    holders=len(want)) as fanout:
                for holder, holder_keys in want.items():
                    if ctx.expired("quorum_read_batch"):
                        deadline_hit = True
                        break  # unprobed holders' keys settle short
                    reply = ctx.call(reader, holder, "quorum_read_batch",
                                     fanout=True)
                    batch_probes.append(reply.latency)
                    for key in holder_keys:
                        key_probes[key].append(reply)
                    if not reply.ok:
                        continue
                    reachable += 1
                    for key in holder_keys:
                        record = self._verify_once(
                            key, self.serve(holder, reader, key), seen)
                        if not isinstance(record, StoredVersion):
                            rejected[key] += 1
                            self.metrics.inc("storage.byzantine_rejects")
                            responses[key].append((holder, None))
                            continue
                        responses[key].append((holder, record))
                        key_verified[key].append(reply.latency)
                # The batch's wire cost: every holder answers once; the
                # slowest probe bounds the batch.
                fanout.settle_cost(max(batch_probes, default=0.0))
            span.set_attr("reachable", reachable)
            settled = 0
            for key in ordered:
                # Per-key latency: the R-th holder whose response for
                # *this key* verified (one probe can satisfy many keys).
                elapsed = critical_path(
                    self.config.r, key_verified[key],
                    [probe.latency for probe in key_probes[key]])
                try:
                    results[key] = self._settle(reader, key,
                                                responses[key],
                                                rejected[key],
                                                elapsed=elapsed)
                    settled += 1
                except (StorageError, ReplicaIntegrityError) as exc:
                    if isinstance(exc, StorageError):
                        if deadline_hit:
                            exc = DeadlineExceededError(
                                f"batch read of {key!r} ran out of budget")
                        elif any(probe.cause == "overloaded"
                                 for probe in key_probes[key]):
                            exc = OverloadedError(
                                f"quorum for {key!r} not met: probes were "
                                "shed by overloaded holders")
                    results[key] = exc
            span.set_attr("served", settled)
        return results

    def read_any(self, reader: str, key: str) -> bytes:
        """The *bare* read path: trust the first holder that answers.

        Returns whatever bytes the holder serves — stale, forked, or
        garbled included.  This is the pre-quorum behaviour kept as E14's
        baseline; nothing in the repo should use it for correctness.
        """
        probed = 0
        for holder in self.holders_of(key):
            node = self.ring.nodes.get(holder)
            if node is None or key not in node.store:
                continue
            if probed > 0:
                self.metrics.inc("net.hedges", kind="replica_fetch")
            probed += 1
            if self.fabric.call(reader, holder, "replica_fetch").ok:
                return self.serve(holder, reader, key)
        raise StorageError(
            f"key {key!r} unavailable: no reachable replica holds it")
