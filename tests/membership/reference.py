"""Reference implementation: SWIM's rumor queue as first written.

``repro.membership.swim`` queues each rumor as an immutable ``_Update``
tuple with its retransmission budget in a parallel list, re-gossips news
by queueing the tuple it received, and merges one contact's batch in one
loop (``MemberView.merge``).  What that replaced lives here, verbatim but
for ``record.estimator.x`` reading ``record.x`` now that a record *is*
its estimator: a mutable ``_Update`` carrying its own ``budget``, and a
view that applies a batch one ``receive`` at a time, building a fresh
``_Update`` for every rumor it re-gossips and trimming the queue after
every append.  ``test_merge_oracle.py`` holds the new code equal to it:
the same records, indexes, queue and counters for the same input.
"""

from dataclasses import dataclass
from typing import List, Sequence

from repro.membership.swim import (_QUEUE_CAP, ALIVE, DEAD, PIGGYBACK_LIMIT,
                                   SUSPECT, MemberView, SwimMembership)


@dataclass(slots=True)
class _Update:
    """One piggybacked membership rumor."""

    peer: str
    state: str          # ALIVE / SUSPECT / DEAD
    incarnation: int
    heard_at: float     # when the originator last had evidence of peer
    budget: int         # remaining piggyback transmissions


class ReferenceView(MemberView):
    """A view whose queue holds mutable, budget-carrying ``_Update``s
    (``budgets`` stays empty) and which merges a rumor at a time."""

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
                membership._confirmed(self.owner, update.peer, now,
                                      record, via_gossip=True)
                news = True
        if news:
            self.enqueue(update.peer, update.state, update.incarnation,
                         update.heard_at)


class ReferenceMembership(SwimMembership):
    """The protocol driver unchanged, over reference views."""

    def register(self, name: str) -> MemberView:
        view = super().register(name)
        # same state, the old queue code: a view starts with an empty queue
        view.__class__ = ReferenceView
        return view

