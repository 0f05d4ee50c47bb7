"""Reference implementation: the quorum read as first written.

``ReplicatedStore.get`` is now the one-key case of ``get_many``: one
verified read that probes each holder once and settles each key
through ``_settle``.  What it replaced lives here, verbatim, as the
oracle: a per-key probe loop of its own and a ``_settle`` that counts
rejects apart from the responses, tags the read's span and picks the
winner in each of its two branches.  It also skips, before any RPC, a
holder whose store lacks the key, which ``get_many`` now asks like any
other.  ``test_read_oracle.py`` holds the new read equal to it wherever no
holder lacks a key it is asked for: the same ``ReadResult`` or exception
type, the same network statistics, counters and holder stores after
read-repair.  Only :meth:`ReferenceStore.get` is the oracle; its
``_settle`` serves that ``get`` alone.
"""

from typing import Dict, List, Optional, Tuple

from repro.exceptions import (DeadlineExceededError, OverloadedError,
                              ReplicaIntegrityError, StorageError)
from repro.overlay.simulator import critical_path
from repro.storage2 import ReadResult, ReplicatedStore, StoredVersion


class ReferenceStore(ReplicatedStore):
    """A store that reads one key through its own probe loop."""

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
