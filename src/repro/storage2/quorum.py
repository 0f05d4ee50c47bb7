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

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.exceptions import (CryptoError, DeadlineExceededError,
                              IntegrityError, LookupError_, OverloadedError,
                              QuorumWriteError, ReplicaIntegrityError,
                              StorageError)
from repro.faults.byzantine import CorruptBlob, Equivocate, StaleServe
from repro.overlay.simulator import critical_path
from repro.storage2.config import ReplicationConfig
from repro.storage2.record import (GENESIS, StoredVersion, newest,
                                    seal_version)


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
        #: the store's own stream: identity minting and record sealing
        self.rng = self.sim.split_rng("storage2")
        #: key -> current replica holders (repair may re-place these)
        self.placements: Dict[str, List[str]] = {}
        #: writer-side chain state: latest version number / record hash
        self._versions: Dict[str, int] = {}
        self._prev_hash: Dict[str, bytes] = {}
        #: (holder, key) -> every encoded record the holder ever accepted,
        #: oldest first — the material Byzantine holders replay from
        self._history: Dict[Tuple[str, str], List[bytes]] = {}

    # -- plumbing ---------------------------------------------------------------

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
        per :meth:`get_many` call, never kept across reads — decodes and
        verifies each distinct served blob once.
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
        """Verified quorum read of one key: the one-key :meth:`get_many`,
        with the failure raised instead of returned."""
        value = self.get_many(reader, (key,))[key]
        if isinstance(value, Exception):
            raise value
        return value

    def get_many(self, reader: str, keys) -> Dict[str, object]:
        """The verified quorum read: newest of >= R verified responses wins.

        Every holder is probed once, healthiest first, for all of its
        keys (an accounted ``quorum_read`` RPC each; probes after the
        first count as hedges like the ring's replica reads).  The reply,
        never a peek at the holder's store, says who is down and what it
        holds: a failed reply or an ``ok`` one from a holder without the
        key serves that key nothing, but its probe is still paid for.
        Responses failing verification are rejected and counted, never
        returned.
        Each key then settles on its own (:meth:`_settle`): verified
        holders serving an older version get the winner pushed back
        (read-repair), and the key costs the critical path to its R-th
        *verified* response; the batch costs its slowest key.

        Returns ``key -> ReadResult | ReproError``, so one short quorum
        cannot fail the batch: :class:`ReplicaIntegrityError` when data
        was served but nothing verified, :class:`StorageError` when the
        quorum is short.  With an overload config on the fabric the read
        carries a deadline: probes stop being issued once the budget is
        spent (each holder's channel call sees only the remainder), and
        an exhausted budget that costs a quorum becomes a
        :class:`DeadlineExceededError`.  A quorum missed because holders
        *shed* the probes is an :class:`OverloadedError` — the caller
        learns the replicas are saturated, not gone.
        """
        ctx = self.fabric.op(reader)
        #: key -> (responses, its probes' latencies, the verified ones')
        reads: Dict[str, Tuple[list, list, list]] = {}
        plan: Dict[str, List[str]] = {}   # holder -> the keys asked of it
        for key in keys:
            if key in reads:
                continue
            reads[key] = ([], [], [])
            for holder in ctx.order(self.holders_of(key)):
                plan.setdefault(holder, []).append(key)
        with self.network.tracer.span("storage2.get", reader=reader,
                                      keys=len(reads),
                                      holders=len(plan)):
            seen: Dict[Tuple[str, bytes], object] = {}
            shed: List[str] = []  # holders that shed their probe
            deadline_hit = False
            with self.network.tracer.span("storage2.get.fanout",
                                          parallel=True,
                                          holders=len(plan)) as fanout:
                for probed, (holder, asked) in enumerate(plan.items()):
                    if ctx.expired("quorum_read"):
                        deadline_hit = True
                        break  # stop issuing probes nobody will wait for
                    if probed:
                        self.metrics.inc("net.hedges", kind="quorum_read")
                    reply = ctx.call(reader, holder, "quorum_read",
                                     fanout=True)
                    if reply.cause == "overloaded":
                        shed.append(holder)
                    store = self.ring.nodes[holder].store if reply.ok else {}
                    for key in asked:
                        responses, probes, verified = reads[key]
                        probes.append(reply.latency)
                        if key not in store:
                            continue  # down, or up without it: served nothing
                        record = self._verify_once(
                            key, self.serve(holder, reader, key), seen)
                        if isinstance(record, StoredVersion):
                            verified.append(reply.latency)
                        else:  # a rejected response cannot count toward R
                            record = None
                            self.metrics.inc("storage.byzantine_rejects")
                        responses.append((holder, record))
                # A key returns at its R-th *verified* response (an unmet
                # quorum waits out every probe); the batch at its slowest.
                costs = [critical_path(self.config.r, verified, probes)
                         for _, probes, verified in reads.values()]
                fanout.settle_cost(max(costs, default=0.0))
            results: Dict[str, object] = {}
            for (key, (responses, probes, _)), elapsed in zip(reads.items(),
                                                              costs):
                try:
                    results[key] = self._settle(reader, key, responses,
                                                elapsed)
                except ReplicaIntegrityError as exc:
                    results[key] = exc
                except StorageError as exc:
                    sheds = sum(key in plan[holder] for holder in shed)
                    if deadline_hit:
                        exc = DeadlineExceededError(
                            f"quorum read of {key!r} ran out of budget "
                            f"after {len(probes)} probes")
                    elif sheds:
                        exc = OverloadedError(
                            f"quorum for {key!r} not met: {sheds} of "
                            f"{len(probes)} probes were shed by overloaded "
                            "holders")
                    results[key] = exc
        return results

    def _settle(self, reader: str, key: str,
                responses: List[Tuple[str, Optional[StoredVersion]]],
                elapsed: float) -> ReadResult:
        """Winner selection, degraded fallback and read-repair for one key.

        ``responses`` pairs each holder that answered with its verified
        record, or ``None`` for a rejected one.
        """
        verified = [(h, r) for h, r in responses if r is not None]
        rejected = len(responses) - len(verified)
        if not verified:
            if rejected:
                raise ReplicaIntegrityError(
                    f"no holder served a valid copy of {key!r} "
                    f"({rejected} responses rejected)")
            raise StorageError(
                f"key {key!r} unavailable: no reachable replica holds it")
        degraded = len(verified) < self.config.r
        if degraded and not self.config.degraded_reads:
            raise StorageError(
                f"read quorum for {key!r} not met: {len(verified)} "
                f"verified responses, needs R={self.config.r}")
        best_holder, best = newest(verified)
        repaired = 0
        if degraded:
            # DegradedRead: the quorum is unreachable but at least one
            # copy verified — serve it flagged rather than failing.
            # Staleness is possible; tampered bytes are not (only
            # verified responses compete).
            self.metrics.inc("storage.degraded_reads")
        else:
            encoded = best.encode()
            for holder, record in responses:
                if record is not None and record.version >= best.version:
                    continue
                ok = self.fabric.call(reader, holder, "read_repair").ok
                if ok and self.store_at(holder, key, encoded):
                    repaired += 1
                    self.metrics.inc("storage.read_repairs")
        return ReadResult(
            payload=best.payload, version=best.version, author=best.author,
            holder=best_holder, verified=len(verified), rejected=rejected,
            repaired=repaired, degraded=degraded, elapsed=elapsed)

    def read_any(self, reader: str, key: str) -> bytes:
        """The *bare* read path: trust the first holder that answers.

        Returns whatever bytes the holder serves — stale, forked, or
        garbled included.  This is the pre-quorum behaviour kept as E14's
        baseline; nothing in the repo should use it for correctness.
        Every holder is probed in turn (probes after the first are
        hedges) until an ``ok`` reply comes from one that has the key.
        """
        for probed, holder in enumerate(self.holders_of(key)):
            if probed:
                self.metrics.inc("net.hedges", kind="replica_fetch")
            if self.fabric.call(reader, holder, "replica_fetch").ok \
                    and key in self.ring.nodes[holder].store:
                return self.serve(holder, reader, key)
        raise StorageError(
            f"key {key!r} unavailable: no reachable replica holds it")
