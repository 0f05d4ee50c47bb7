"""Reference implementation: SWIM's member table and rumor queue as first
written.

``repro.membership.swim`` packs a view's table by registration rank: one
``array("d")`` holds each peer's last evidence and a ring of its last
``WINDOW`` gaps (:class:`repro.membership.phi.PhiTable`), beside compact
``states`` / ``incarnations`` arrays.  It queues each rumor as an
immutable ``_Update`` tuple with its retransmission budget in a parallel
list and merges one contact's batch in one loop.  What that replaced
lives here:

* the record-per-pair table — a ``records`` dict per view holding one
  :class:`MemberRecord` per peer, which *is* its :class:`PhiEstimator`
  (a sliding ``array("d")`` window), moved here from ``src/`` verbatim
  but for ``_confirmed`` no longer taking the record and ``resume``
  being named ``restart``, and the confirm sweep that sorts every
  suspect each period;
* the rumor queue — a mutable ``_Update`` carrying its own ``budget``,
  applied one ``receive`` at a time, a fresh ``_Update`` built for every
  rumor re-gossiped, the queue trimmed after every append.

``test_merge_oracle.py`` holds the packed view equal to it: the same
records, indexes, queue and counters for the same input.
"""

from array import array
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set

from repro.membership.phi import INITIAL_INTERVAL, LN10, MIN_INTERVAL, WINDOW
from repro.membership.swim import (_QUEUE_CAP, ALIVE, CONFIRM_PHI, DEAD,
                                   PIGGYBACK_LIMIT, SUSPECT, SUSPECT_PHI,
                                   ConfirmEvent, PeerRecord, SwimMembership)


class PhiEstimator:
    """Evidence-gap tracker for one (observer, peer) pair."""

    __slots__ = ("last_evidence", "_gaps")

    def __init__(self, now: float) -> None:
        self.last_evidence = now
        # a sliding window of the last ``WINDOW`` gaps, oldest first
        self._gaps = array("d")

    def evidence(self, at: float) -> bool:
        if at <= self.last_evidence:
            return False
        gaps = self._gaps
        if len(gaps) == WINDOW:
            del gaps[0]
        gaps.append(at - self.last_evidence)
        self.last_evidence = at
        return True

    def restart(self, now: float) -> None:
        self.last_evidence = now

    @property
    def mean_gap(self) -> float:
        if len(self._gaps) < 3:
            return INITIAL_INTERVAL
        return max(sum(self._gaps) / len(self._gaps), MIN_INTERVAL)

    def phi(self, now: float) -> float:
        elapsed = now - self.last_evidence
        if elapsed <= 0:
            return 0.0
        return elapsed / (self.mean_gap * LN10)

    def silence_bound(self, threshold: float) -> float:
        return threshold * self.mean_gap * LN10


class MemberRecord(PhiEstimator):
    """One peer as seen by one member: its phi estimator plus its SWIM
    state — one object per (observer, peer) pair of the n² table."""

    __slots__ = ("state", "incarnation")

    def __init__(self, now: float) -> None:
        PhiEstimator.__init__(self, now)
        self.state = ALIVE
        self.incarnation = 0


@dataclass(slots=True)
class _Update:
    """One piggybacked membership rumor."""

    peer: str
    state: str          # ALIVE / SUSPECT / DEAD
    incarnation: int
    heard_at: float     # when the originator last had evidence of peer
    budget: int         # remaining piggyback transmissions


class ReferenceView:
    """Everything one member believes about the cluster, one
    :class:`MemberRecord` per peer; a queue of mutable, budget-carrying
    ``_Update``s (``budgets`` stays empty) merged a rumor at a time."""

    def __init__(self, owner: str, membership: "ReferenceMembership",
                 now: float) -> None:
        self.owner = owner
        self.membership = membership
        self.self_incarnation = 0
        self.records: Dict[str, MemberRecord] = {}
        self.suspects: Set[str] = set()
        self.dead: Set[str] = set()
        self.queue: List[_Update] = []
        self.budgets: List[int] = []
        self.last_active = now

    # -- read API --------------------------------------------------------------

    def record(self, peer: str) -> Optional[PeerRecord]:
        record = self.records.get(peer)
        if record is None:
            return None
        return PeerRecord(record.state, record.incarnation,
                          record.last_evidence, record._gaps[:])

    def is_dead(self, peer: str) -> bool:
        return peer in self.dead

    def suspicious(self, peer: str, now: float) -> bool:
        record = self.records.get(peer)
        if record is None:
            return False
        return record.state != ALIVE or record.phi(now) >= SUSPECT_PHI

    def health(self, peer: str, now: float) -> float:
        record = self.records.get(peer)
        if record is None:
            return 1.0
        if record.state == DEAD:
            return 0.0
        score = max(0.0, 1.0 - record.phi(now) / CONFIRM_PHI)
        if record.state == SUSPECT:
            score *= 0.5
        return score

    def dead_peers(self) -> List[str]:
        return self.membership.in_rank_order(self.dead)

    # -- state transitions -----------------------------------------------------

    def set_state(self, peer: str, state: str) -> None:
        """The one writer of ``record.state`` in the oracle."""
        self.records[peer].state = state
        if state == SUSPECT:
            self.suspects.add(peer)
        else:
            self.suspects.discard(peer)
        if state == DEAD:
            self.dead.add(peer)
        else:
            self.dead.discard(peer)

    def direct_evidence(self, peer: str, incarnation: int,
                        now: float) -> None:
        record = self.records.get(peer)
        if record is None:
            return
        buried_as = record.incarnation if record.state == DEAD else None
        record.evidence(now)
        if incarnation > record.incarnation:
            record.incarnation = incarnation
        if record.state == DEAD:
            self.set_state(peer, ALIVE)
            self.membership._revived(self.owner, peer, buried_as, now)
        elif record.state == SUSPECT:
            self.set_state(peer, ALIVE)

    def observe_contact(self, peer: str, now: float) -> None:
        record = self.records.get(peer)
        if record is not None:
            self.direct_evidence(peer, record.incarnation, now)

    def restart(self, now: float) -> None:
        for record in self.records.values():
            record.restart(now)

    # -- piggyback dissemination ----------------------------------------------

    def enqueue(self, peer: str, state: str, incarnation: int,
                heard_at: float) -> None:
        queue = self.queue
        queue.append(_Update(peer, state, incarnation, heard_at,
                             self.membership.rumor_budget))
        if len(queue) > _QUEUE_CAP:
            del queue[:len(queue) - _QUEUE_CAP]

    def take_piggyback(self) -> List[_Update]:
        """Up to ``PIGGYBACK_LIMIT`` updates to send with one contact."""
        batch = self.queue[:PIGGYBACK_LIMIT]
        del self.queue[:len(batch)]
        keep = []
        for update in batch:
            update.budget -= 1
            if update.budget > 0:
                keep.append(update)
        self.queue.extend(keep)  # rotate: fresh rumors go first next time
        return batch

    def merge(self, batch: Sequence[_Update], now: float) -> None:
        for update in batch:
            self.receive(update, now)

    def receive(self, update: _Update, now: float) -> None:
        """Apply one piggybacked rumor (SWIM merge rules); re-gossip news."""
        membership = self.membership
        metrics = membership.metrics
        if update.peer == self.owner:
            # Someone is spreading doubt about us: refute by overriding
            # the rumored incarnation with a fresher self.
            if update.state in (SUSPECT, DEAD) \
                    and update.incarnation >= self.self_incarnation:
                self.self_incarnation = update.incarnation + 1
                self.enqueue(self.owner, ALIVE, self.self_incarnation, now)
                metrics.inc("membership.refutations")
            return
        record = self.records.get(update.peer)
        if record is None:
            return
        news = False
        if update.state == ALIVE:
            if update.incarnation > record.incarnation:
                if record.state == DEAD:
                    self.membership._revived(self.owner, update.peer)
                self.set_state(update.peer, ALIVE)
                record.incarnation = update.incarnation
                news = True
            if record.state != DEAD \
                    and record.evidence(update.heard_at):
                news = True
        elif update.state == SUSPECT:
            if record.state == DEAD:
                return
            if update.incarnation > record.incarnation or (
                    update.incarnation == record.incarnation
                    and record.state == ALIVE):
                if record.state != SUSPECT:
                    metrics.inc("membership.suspicions", source="gossip")
                    self.set_state(update.peer, SUSPECT)
                record.incarnation = update.incarnation
                news = True
        else:  # DEAD is final until a higher incarnation revives the peer
            if record.state != DEAD:
                self.set_state(update.peer, DEAD)
                record.incarnation = max(record.incarnation,
                                         update.incarnation)
                membership._confirmed(update.peer, now, via_gossip=True)
                news = True
        if news:
            self.enqueue(update.peer, update.state, update.incarnation,
                         update.heard_at)


class ReferenceMembership(SwimMembership):
    """The protocol driver over reference views: registration builds a
    record per pair, and the confirm sweep sorts every suspect."""

    def register(self, name: str) -> ReferenceView:
        now = self.sim.now
        view = ReferenceView(name, self, now)
        view.records = {other: MemberRecord(now) for other in self._members}
        for other_view in self.views.values():
            other_view.records[name] = MemberRecord(now)
        self.views[name] = view
        self.ranks[name] = len(self._members)
        self._members.append(name)
        self.rumor_budget = self.gossip_budget()
        return view

    def _sweep_confirms(self, view: ReferenceView, now: float) -> None:
        for peer in self.in_rank_order(view.suspects):
            record = view.records[peer]
            if record.state != SUSPECT:
                continue
            if record.phi(now) >= CONFIRM_PHI:
                view.set_state(peer, DEAD)
                self.confirm_log.append(ConfirmEvent(
                    observer=view.owner, peer=peer, at=now,
                    silence=now - record.last_evidence,
                    bound=record.silence_bound(CONFIRM_PHI),
                    phi=record.phi(now),
                    actually_online=self.network.is_online(peer)))
                self._confirmed(peer, now, via_gossip=False)
                view.enqueue(peer, DEAD, record.incarnation,
                             record.last_evidence)
