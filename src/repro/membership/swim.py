"""SWIM-style gossip membership with phi-accrual failure detection.

Das et al.'s SWIM, run deterministically on the simulator clock: every
protocol period each live member direct-pings one randomized round-robin
target; on failure it asks ``k`` proxies to ping the target for it
(ping-req); when the indirect chains also fail the target is marked
**suspect** and the suspicion disseminates epidemically, piggybacked on
subsequent probe traffic with per-update retransmission budgets and SWIM
incarnation numbers (a suspected member refutes by bumping its own
incarnation).  Unlike stock SWIM's fixed suspicion timeout, the
suspect -> **dead** confirmation is driven by a per-peer phi-accrual
estimator (:mod:`repro.membership.phi`) fed by every piece of liveness
evidence — direct acks, relayed indirect acks, and piggybacked alive
heartbeats carrying their observation timestamps (the Cassandra
gossip + accrual combination) — so the confirm timeout adapts to the
observed contact rate and loss of each pair.

Everything each member "knows" lives in its :class:`MemberView`; the
protocol only moves information via accounted RPCs on the simulated
network, so detection latency, false positives, and message cost (E15)
are paid for honestly.  The one deliberate exception is
:meth:`SwimMembership.confirmed_dead`, the *administrative* union of
per-member confirmations used by the repair daemon — justified because
confirmations gossip cluster-wide within a few periods, and flagged in
``docs/membership.md``.
"""

from __future__ import annotations

import math
import random as _random
from array import array
from dataclasses import dataclass
from typing import (Callable, Dict, Iterable, List, NamedTuple, Optional,
                    Sequence, Set, Tuple)

from repro.exceptions import OverlayError, SimulationError
from repro.membership.phi import PhiTable

ALIVE = "alive"
SUSPECT = "suspect"
DEAD = "dead"
_STATES = (ALIVE, SUSPECT, DEAD)    # a view's ``states`` byte indexes it
_ALIVE, _SUSPECT, _DEAD = range(3)

# Sized for the simulated fabric's latency scale (tens of milliseconds
# per link): one probe round per virtual second, three indirect proxies,
# and phi thresholds that tolerate ~20% packet loss without false
# confirmations (E15 measures exactly this).

#: virtual seconds between probe rounds (every member probes one target
#: per round, SWIM-style)
PROTOCOL_PERIOD = 1.0
#: indirect ping-req proxies consulted when a direct probe fails
K_INDIRECT = 3
# The two thresholds are phi-accrual suspicion levels: a phi of ``p``
# means the estimator puts the odds that the peer is still alive and
# merely silent at ``10^-p`` given its observed evidence-gap
# distribution.  The confirm timeout is therefore *per peer and
# adaptive*: ``CONFIRM_PHI * mean_gap * ln(10)`` virtual seconds of
# silence, where ``mean_gap`` is learned online — a noisy link stretches
# the bound automatically instead of tripping a fixed threshold.
#: phi at which a destination is *deprioritized* (routing/channel)
SUSPECT_PHI = 3.0
#: phi at which a suspected peer is confirmed dead
CONFIRM_PHI = 8.0
#: membership updates piggybacked per direction per contact
PIGGYBACK_LIMIT = 8
#: lambda for the per-update retransmission budget
#: (``ceil(lambda * log2(n + 1))`` piggyback transmissions per update)
GOSSIP_BUDGET_FACTOR = 3.0
#: every this many protocol periods a member also probes one peer it
#: has confirmed dead ("gossip to the dead").  Without it two halves
#: of a healed partition — each having buried the other — would
#: never exchange another message, so neither could ever refute.
RECLAIM_EVERY = 4
#: rumors a view queues before the oldest are dropped
_QUEUE_CAP = max(32, 4 * PIGGYBACK_LIMIT)


@dataclass(frozen=True)
class MembershipConfig:
    """Switches the SWIM failure detector on; it has no knobs.

    ``DosnConfig(membership=MembershipConfig())`` makes
    :class:`SwimMembership` — instead of the churn oracle — the liveness
    source; the protocol and estimator parameters are this module's and
    :mod:`repro.membership.phi`'s constants.
    """


class _Update(NamedTuple):
    """One piggybacked membership rumor: an immutable value, so a view
    that re-gossips it queues the very tuple it received (its remaining
    transmissions live in the view's parallel ``budgets`` list)."""

    peer: str
    state: str          # ALIVE / SUSPECT / DEAD
    incarnation: int
    heard_at: float     # when the originator last had evidence of peer


@dataclass
class ConfirmEvent:
    """One observer confirming one peer dead (E15's ground-truth log).

    ``actually_online`` peeks at the node's real state purely for
    experiment scoring (false-positive rate); the protocol never reads
    it.
    """

    observer: str
    peer: str
    at: float
    silence: float       # seconds since the observer's last evidence
    bound: float         # the adaptive confirm bound at that moment
    phi: float
    actually_online: bool


class PeerRecord(NamedTuple):
    """One peer as one member sees it: a copy of its slot in the view."""

    state: str
    incarnation: int
    last_evidence: float
    gaps: array     # oldest first


class MemberView(PhiTable):
    """Everything one member believes about the cluster: its peers' phi
    estimators, ``states`` and ``incarnations``, packed by registration
    rank; the owner's own slot, like an unknown name, has no record."""

    def __init__(self, owner: str, membership: "SwimMembership",
                 now: float) -> None:
        self.ranks = membership.ranks
        self.rank = len(self.ranks)     # the owner's own slot
        slots = self.rank + 1
        PhiTable.__init__(self, slots, now)
        #: written only by :meth:`set_state`, which keeps the indexes true
        self.states = bytearray(slots)  # _ALIVE
        self.incarnations = array("I", bytes(4 * slots))
        self.owner = owner
        self.membership = membership
        self.self_incarnation = 0
        #: the SUSPECT / DEAD peers — what the confirm sweep, the probe
        #: rotation and every ``avoid`` set read instead of a scan
        self.suspects: Set[str] = set()
        self.dead: Set[str] = set()
        #: rumors to piggyback, oldest first, and the transmissions each
        #: has left (``budgets[i]`` belongs to ``queue[i]``; always >= 1)
        self.queue: List[_Update] = []
        self.budgets: List[int] = []
        #: last tick at which the owner was up (stale-clock detection)
        self.last_active = now

    def add_slot(self, now: float) -> None:
        PhiTable.add_slot(self, now)
        self.states.append(_ALIVE)
        self.incarnations.append(0)

    # -- read API (what routing and the channel consume) ----------------------

    def record(self, peer: str) -> Optional[PeerRecord]:
        """``peer``'s record, or None for the owner and strangers."""
        rank = self.ranks.get(peer, self.rank)
        return None if rank == self.rank else PeerRecord(
            _STATES[self.states[rank]], self.incarnations[rank],
            self.last_evidence(rank), self.gaps(rank))

    def is_dead(self, peer: str) -> bool:
        """Whether this view has confirmed ``peer`` dead (unknown peers
        read as alive)."""
        return peer in self.dead

    def suspicious(self, peer: str, now: float) -> bool:
        """Whether the channel should deprioritize ``peer``."""
        rank = self.ranks.get(peer, self.rank)
        if rank == self.rank:
            return False
        return self.states[rank] != _ALIVE \
            or self.phi(rank, now) >= SUSPECT_PHI

    def health(self, peer: str, now: float) -> float:
        """A [0, 1] routing score: 1 fresh evidence, 0 confirmed dead."""
        rank = self.ranks.get(peer, self.rank)
        if rank == self.rank:
            return 1.0
        state = self.states[rank]
        if state == _DEAD:
            return 0.0
        score = max(0.0, 1.0 - self.phi(rank, now) / CONFIRM_PHI)
        if state == _SUSPECT:
            score *= 0.5
        return score

    def dead_peers(self) -> List[str]:
        """Peers this view has confirmed dead (registration order)."""
        return self.membership.in_rank_order(self.dead)

    # -- state transitions -----------------------------------------------------

    def set_state(self, peer: str, state: str) -> None:
        """Move ``peer``'s record to ``state`` — the one writer of
        ``states``, so the indexes cannot drift from the table."""
        self.states[self.ranks[peer]] = _STATES.index(state)
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
        """First-hand proof of life: an ack from (or relayed for) ``peer``.

        Direct contact trumps gossip: it revives suspects without an
        incarnation bump (Lifeguard-style local refutation) and rejoins
        peers this view had buried.  A rejoin also pushes the peer's own
        incarnation past the buried record (via :meth:`SwimMembership.
        _revived`) so the revival can win in every *other* view, where
        DEAD is final until a strictly higher incarnation.
        """
        rank = self.ranks.get(peer, self.rank)
        if rank == self.rank:
            return
        state, buried_as = self.states[rank], self.incarnations[rank]
        self.evidence(rank, now)
        if incarnation > buried_as:
            self.incarnations[rank] = incarnation
        if state == _DEAD:
            self.set_state(peer, ALIVE)
            self.membership._revived(self.owner, peer, buried_as, now)
        elif state == _SUSPECT:
            self.set_state(peer, ALIVE)

    def observe_contact(self, peer: str, now: float) -> None:
        """Application-level proof of life (a successful channel call).

        Lifeguard-style: any acked RPC is as good as a probe ack, so the
        hot path keeps phi low for the peers it actually talks to.
        """
        self.direct_evidence(peer, 0, now)   # 0: no incarnation news

    # -- piggyback dissemination ----------------------------------------------

    def enqueue(self, peer: str, state: str, incarnation: int,
                heard_at: float) -> None:
        queue = self.queue
        queue.append(_Update(peer, state, incarnation, heard_at))
        self.budgets.append(self.membership.rumor_budget)
        if len(queue) > _QUEUE_CAP:
            del queue[:len(queue) - _QUEUE_CAP]
            del self.budgets[:len(self.budgets) - _QUEUE_CAP]

    def take_piggyback(self) -> List[_Update]:
        """Up to ``PIGGYBACK_LIMIT`` updates to send with one contact."""
        queue, budgets = self.queue, self.budgets
        batch = queue[:PIGGYBACK_LIMIT]
        spent = budgets[:PIGGYBACK_LIMIT]
        del queue[:PIGGYBACK_LIMIT], budgets[:PIGGYBACK_LIMIT]
        # rotate: fresh rumors go first next time
        if 1 not in spent:          # no rumor's budget runs out
            queue += batch
            budgets += [budget - 1 for budget in spent]
        else:
            for update, budget in zip(batch, spent):
                if budget > 1:
                    queue.append(update)
                    budgets.append(budget - 1)
        return batch

    def merge(self, batch: Sequence[_Update], now: float) -> None:
        """Apply one contact's piggybacked rumors in order (SWIM merge
        rules); re-gossip each one that was news by queueing it as is."""
        owner, own, ranks = self.owner, self.rank, self.ranks
        states, incarnations = self.states, self.incarnations
        evidence = self.evidence
        queue, budgets = self.queue, self.budgets
        membership = self.membership
        metrics = membership.metrics
        budget = membership.rumor_budget
        for update in batch:
            peer, state, incarnation, heard_at = update
            rank = ranks.get(peer, own)
            if rank == own:
                # Someone is spreading doubt about us: refute by
                # overriding the rumored incarnation with a fresher self.
                if peer == owner and state in (SUSPECT, DEAD) \
                        and incarnation >= self.self_incarnation:
                    self.self_incarnation = incarnation + 1
                    queue.append(_Update(owner, ALIVE, incarnation + 1, now))
                    budgets.append(budget)
                    metrics.inc("membership.refutations")
                continue   # the owner, or a peer this view never met
            news = False
            if state == ALIVE:
                if incarnation > incarnations[rank]:
                    if states[rank] == _DEAD:
                        membership._revived(owner, peer)
                    self.set_state(peer, ALIVE)
                    incarnations[rank] = incarnation
                    news = True
                if states[rank] != _DEAD and evidence(rank, heard_at):
                    news = True
            elif state == SUSPECT:
                if states[rank] == _DEAD:
                    continue
                if incarnation > incarnations[rank] or (
                        incarnation == incarnations[rank]
                        and states[rank] == _ALIVE):
                    if states[rank] != _SUSPECT:
                        metrics.inc("membership.suspicions", source="gossip")
                        self.set_state(peer, SUSPECT)
                    incarnations[rank] = incarnation
                    news = True
            elif states[rank] != _DEAD:
                # DEAD is final until a higher incarnation revives the peer
                self.set_state(peer, DEAD)
                incarnations[rank] = max(incarnations[rank], incarnation)
                membership._confirmed(peer, now, via_gossip=True)
                news = True
            if news:
                queue.append(update)
                budgets.append(budget)
        # trimming only drops from the front, so once per batch keeps
        # exactly what trimming after every append would
        if len(queue) > _QUEUE_CAP:
            del queue[:len(queue) - _QUEUE_CAP]
            del budgets[:len(budgets) - _QUEUE_CAP]


class SwimMembership:
    """The cluster-wide protocol driver (one instance per fabric).

    Construction attaches the service to the fabric
    (``fabric.membership``), which is how the channel, the overlays, and
    the repair daemon discover it.  Nothing runs until :meth:`start`;
    the RNG is split from the simulator only here, so fabrics without
    membership keep their random streams byte-identical.
    """

    def __init__(self, fabric) -> None:
        self.fabric = fabric
        self.network = fabric.network
        self.sim = fabric.sim
        self.metrics = fabric.metrics
        self.tracer = fabric.tracer
        self._rng: _random.Random = self.sim.split_rng("membership")
        self.views: Dict[str, MemberView] = {}
        self._members: List[str] = []
        #: registration rank: where every view keeps the member's slot
        self.ranks: Dict[str, int] = {}
        self._pings = self.metrics.counter("membership.pings")
        self._chains = self.metrics.counter("membership.indirect_chains")
        #: retransmissions granted to each new rumor (see :meth:`register`)
        self.rumor_budget = self.gossip_budget()
        self._rotation: Dict[str, array] = {}
        self._rotation_index: Dict[str, int] = {}
        #: administrative union of confirmations (see module docstring)
        self._dead: Set[str] = set()
        self.confirm_log: List[ConfirmEvent] = []
        self._confirm_callbacks: List[Callable[[str, float], None]] = []
        self._started = False
        self._ticks = 0
        fabric.attach_membership(self)

    # -- membership roster -----------------------------------------------------

    def register(self, name: str) -> MemberView:
        """Enroll a member; it probes and is probed from the next tick."""
        if name in self.views:
            raise OverlayError(f"member {name!r} already registered")
        now = self.sim.now
        for other_view in self.views.values():
            other_view.add_slot(now)
        self.views[name] = view = MemberView(name, self, now)
        self.ranks[name] = view.rank
        self._members.append(name)
        self.rumor_budget = self.gossip_budget()
        return view

    def view_of(self, name: str) -> Optional[MemberView]:
        """The member's view, or None for non-members (legacy callers)."""
        return self.views.get(name)

    def in_rank_order(self, peers: Iterable[str]) -> List[str]:
        """``peers`` sorted by registration rank."""
        return sorted(peers, key=self.ranks.__getitem__)

    def gossip_budget(self) -> int:
        """Retransmissions a rumor is granted at the current roster size
        (a function of the roster alone: :attr:`rumor_budget` holds it)."""
        n = max(2, len(self._members))
        return max(1, math.ceil(GOSSIP_BUDGET_FACTOR * math.log2(n + 1)))

    # -- administrative / consumer API ----------------------------------------

    def confirmed_dead(self, peer: str) -> bool:
        """Whether *any* view currently holds ``peer`` confirmed dead."""
        return peer in self._dead

    def on_confirm(self, callback: Callable[[str, float], None]) -> None:
        """Subscribe to cluster-first death confirmations.

        ``callback(peer, now)`` fires once per death (not once per
        observer); the repair daemon uses it to re-replicate promptly.
        """
        self._confirm_callbacks.append(callback)

    def false_positive_stats(self) -> Tuple[int, int]:
        """(false confirms, total confirms) from the ground-truth log."""
        false = sum(1 for event in self.confirm_log
                    if event.actually_online)
        return false, len(self.confirm_log)

    # -- the protocol loop -----------------------------------------------------

    def start(self) -> None:
        """Schedule the recurring probe tick (idempotent)."""
        if self._started:
            return
        if len(self._members) < 2:
            raise SimulationError(
                "membership needs at least two registered members")
        self._started = True
        self.sim.schedule(PROTOCOL_PERIOD, self._tick)

    def _tick(self) -> None:
        now = self.sim.now
        self._ticks += 1
        reclaim_turn = self._ticks % RECLAIM_EVERY == 0
        with self.tracer.span("membership.tick"):
            for name in self._members:
                if not self.network.is_online(name):
                    continue
                view = self.views[name]
                if now - view.last_active > 1.5 * PROTOCOL_PERIOD:
                    view.restart(now)  # we were away; peers owe us nothing
                view.last_active = now
                self._probe_round(name, now)
                if reclaim_turn:
                    self._reclaim_probe(name, now)
            for name in self._members:
                view = self.views[name]
                if view.suspects and self.network.is_online(name):
                    self._sweep_confirms(view, now)
        self.sim.schedule(PROTOCOL_PERIOD, self._tick)

    def _next_target(self, member: str) -> Optional[str]:
        """Randomized round-robin target selection (SWIM section 4.3)."""
        order = self._rotation.get(member)
        index = self._rotation_index.get(member, 0)
        if order is None or index >= len(order):
            order = array("I", range(len(self._members)))
            del order[self.ranks[member]]
            self._rng.shuffle(order)
            self._rotation[member] = order
            index = 0
        view = self.views[member]
        while index < len(order):
            target = self._members[order[index]]
            index += 1
            if target not in view.dead:
                self._rotation_index[member] = index
                return target
        self._rotation_index[member] = index
        return None

    def _probe_round(self, member: str, now: float) -> None:
        target = self._next_target(member)
        if target is None:
            return
        self._pings.value += 1
        if self.network.rpc_issue(member, target, "swim_ping").ok:
            self._contact(member, target, now)
            return
        if self._indirect_probe(member, target, now):
            return
        self._suspect(member, target)

    def _reclaim_probe(self, member: str, now: float) -> None:
        """Ping one confirmed-dead peer ("gossip to the dead").

        Confirmed peers drop out of the probe rotation, so after a
        partition heals — both halves having buried each other — nobody
        would ever initiate contact across the old cut.  A low-rate
        probe of the graveyard rediscovers such peers; a successful
        contact revives the record and makes the peer outbid its burial
        incarnation (see :meth:`_revived`), which revives it everywhere.
        """
        view = self.views[member]
        dead = view.dead_peers()
        if not dead:
            return
        target = dead[self._rng.randrange(len(dead))]
        self.metrics.inc("membership.reclaim_pings")
        if self.network.rpc_issue(member, target, "swim_ping").ok:
            self._contact(member, target, now)

    def _indirect_probe(self, member: str, target: str,
                        now: float) -> bool:
        """ping-req via k proxies; True when any chain reached the target.

        Each chain is two accounted RPCs (member->proxy carrying the
        request + response, proxy->target carrying the ping + ack): four
        messages, exactly SWIM's ping-req/ping/ack/ack cost.
        """
        view = self.views[member]
        dead = view.dead
        candidates = [m for m in self._members
                      if m not in (member, target) and m not in dead]
        k = min(K_INDIRECT, len(candidates))
        if k == 0:
            return False
        proxies = self._rng.sample(candidates, k)
        reached = False
        # The k chains run concurrently in real SWIM: each chain is a
        # serial sub-span (its two RPCs are dependent) and the chains
        # roll up as max.
        with self.network.tracer.span("swim.indirect", parallel=True,
                                      target=target):
            for proxy in proxies:
                with self.network.tracer.span("swim.pingreq.chain",
                                              proxy=proxy):
                    self._chains.value += 1
                    if not self.network.rpc_issue(
                            member, proxy, "swim_pingreq").ok:
                        continue
                    self._contact(member, proxy, now)
                    if not self.network.is_online(proxy):
                        continue  # the proxy answered, then left
                    if not self.network.rpc_issue(
                            proxy, target, "swim_ping").ok:
                        continue
                    reached = True
                    # The proxy heard the target; its relayed ack is
                    # first-hand evidence for the proxy and relayed
                    # evidence for the member.
                    target_inc = self.views[target].self_incarnation
                    proxy_view = self.views[proxy]
                    proxy_view.direct_evidence(target, target_inc, now)
                    proxy_view.enqueue(target, ALIVE, target_inc, now)
                    view.direct_evidence(target, target_inc, now)
                    view.enqueue(target, ALIVE, target_inc, now)
        return reached

    def _contact(self, a: str, b: str, now: float) -> None:
        """A successful direct exchange: evidence + piggyback both ways."""
        view_a, view_b = self.views[a], self.views[b]
        view_a.direct_evidence(b, view_b.self_incarnation, now)
        view_b.direct_evidence(a, view_a.self_incarnation, now)
        # Fresh heartbeats for the epidemic evidence stream.
        view_a.enqueue(b, ALIVE, view_b.self_incarnation, now)
        view_b.enqueue(a, ALIVE, view_a.self_incarnation, now)
        view_b.merge(view_a.take_piggyback(), now)
        view_a.merge(view_b.take_piggyback(), now)

    def _suspect(self, member: str, target: str) -> None:
        view = self.views[member]
        record = view.record(target)
        if record.state == DEAD:
            return
        if record.state == ALIVE:
            view.set_state(target, SUSPECT)
            self.metrics.inc("membership.suspicions", source="probe")
        view.enqueue(target, SUSPECT, record.incarnation,
                     record.last_evidence)

    def _sweep_confirms(self, view: MemberView, now: float) -> None:
        ranks = self.ranks
        # most sweeps confirm nobody: sort only the suspects that cross,
        # and read the window only of those silent long enough that they
        # may
        due = [peer for peer in view.suspects
               if view.may_reach(ranks[peer], now, CONFIRM_PHI)
               and view.phi(ranks[peer], now) >= CONFIRM_PHI]
        for peer in self.in_rank_order(due):
            rank = ranks[peer]
            # a confirm's callbacks (repair -> RPCs -> observe_contact)
            # may have cleared a peer this snapshot still holds
            if view.states[rank] != _SUSPECT:
                continue
            phi = view.phi(rank, now)
            if phi >= CONFIRM_PHI:
                view.set_state(peer, DEAD)
                self.confirm_log.append(ConfirmEvent(
                    observer=view.owner, peer=peer, at=now,
                    silence=now - view.last_evidence(rank),
                    bound=view.silence_bound(rank, CONFIRM_PHI), phi=phi,
                    actually_online=self.network.is_online(peer)))
                self._confirmed(peer, now, via_gossip=False)
                view.enqueue(peer, DEAD, view.incarnations[rank],
                             view.last_evidence(rank))

    # -- bookkeeping shared by local and gossiped transitions -------------------

    def _confirmed(self, peer: str, now: float, via_gossip: bool) -> None:
        self.metrics.inc("membership.confirms",
                         source="gossip" if via_gossip else "phi")
        if peer not in self._dead:
            self._dead.add(peer)
            for callback in self._confirm_callbacks:
                callback(peer, now)

    def _revived(self, observer: str, peer: str,
                 buried_as: Optional[int] = None,
                 now: Optional[float] = None) -> None:
        self.metrics.inc("membership.rejoins")
        self._dead.discard(peer)
        if buried_as is None:
            return
        # Direct contact proved the burial wrong, but DEAD is final in
        # every *other* view until a strictly higher incarnation shows
        # up — so the revived peer must outbid the record it was buried
        # under before its ALIVE gossip can win anywhere else.
        peer_view = self.views.get(peer)
        if peer_view is not None and peer_view.self_incarnation <= buried_as:
            peer_view.self_incarnation = buried_as + 1
            peer_view.enqueue(peer, ALIVE, peer_view.self_incarnation,
                              now if now is not None else self.sim.now)
            self.metrics.inc("membership.refutations")

    # -- health-aware candidate ordering (routing helpers) ----------------------

    def order_by_health(self, observer: str, peers: Sequence[str]
                        ) -> List[str]:
        """Stable sort of ``peers`` by the observer's health scores.

        Confirmed-dead peers sort last (not dropped: a false confirm
        must still be reachable as the probe of last resort).  Observers
        without a view get the input back unchanged.
        """
        view = self.views.get(observer)
        if view is None:
            return list(peers)
        now = self.sim.now
        return sorted(peers, key=lambda p: -view.health(p, now))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"SwimMembership(members={len(self._members)}, "
                f"dead={len(self._dead)}, started={self._started})")
