"""The :class:`Fabric`: one context object for the whole simulation stack.

It bundles the five cross-cutting objects

    ``sim`` · ``network`` · ``channel`` · ``tracer`` · ``metrics``

plus a lazily-split ``rng``, and is what you pass to ``ChordRing``,
``KademliaOverlay``, ``HybridOverlay`` and ``DosnNetwork``::

    fab = Fabric.create(seed=7)                      # plain fabric
    fab = Fabric.create(seed=7, tracing=True)        # with a real tracer
    fab = Fabric.create(seed=7, faults=plan,         # chaos + resilience
                        resilient=True)
    ring = ChordRing(fab, replication=3)             # channel wired in

Determinism note: RNGs split in a fixed order (``network`` first, then
``reliable-channel`` when resilient; the fabric's own ``rng`` lazily on
first use), so attaching a subsystem moves no experiment's random stream.

**The RPC seam.**  Overlays and stores keep routing geometry and storage
semantics; the RPC path's cross-cutting concerns meet them only here:
:meth:`Fabric.call` / :meth:`Fabric.call_issue` are the one place that
chooses between the resilient channel and the bare network, and
:meth:`Fabric.op` mints the :class:`OpContext` of each public operation,
which owns the deadline check, the holder ordering and the adversary's
interposition on routing answers.  The steps and their order are fixed;
on a fabric with nothing attached each is a single ``None`` test.
"""

from __future__ import annotations

import random as _random
from typing import Any, FrozenSet, Optional, Sequence, Set, Tuple

from repro.exceptions import LookupError_, SimulationError
from repro.faults.overload import (Deadline, OverloadConfig, RetryBudget,
                                   deadline_expired)
from repro.faults.resilience import (CircuitBreaker, ReliableChannel,
                                     RetryPolicy)
from repro.obs.trace import NOOP_TRACER, Tracer
from repro.overlay.network import SimNetwork
from repro.overlay.simulator import SimFuture, Simulator

__all__ = ["Fabric", "OpContext"]


class Fabric:
    """Simulator + network + resilience + observability, as one handle."""

    def __init__(self, sim: Simulator, network: SimNetwork,
                 channel: Optional[ReliableChannel] = None,
                 rng: Optional[_random.Random] = None,
                 overload: Optional[OverloadConfig] = None) -> None:
        if network.sim is not sim:
            raise SimulationError(
                "fabric network must run on the fabric simulator")
        self.sim = sim
        self.network = network
        self.channel = channel
        # the network's own: its stats view derives from this registry
        self.tracer = network.tracer
        self.metrics = network.metrics
        #: the attached :class:`repro.membership.SwimMembership` (None
        #: keeps every layer on the legacy oracle path, byte-identical)
        self.membership: Optional[Any] = None
        #: the attached :class:`repro.adversary.AdversaryModel` (None
        #: keeps lookups trusting and byte-identical; even attached, the
        #: adversary draws no RNG — its decisions are hash-derived)
        self.adversary: Optional[Any] = None
        #: the overload-protection config (None = fair-weather fabric,
        #: byte-identical).  :meth:`op` mints each operation's deadline
        #: from it.
        self.overload: Optional[OverloadConfig] = overload
        if overload is not None:
            network.install_overload(overload)
            if channel is not None and overload.retry_budget:
                channel.retry_budget = RetryBudget()
        self._rng = rng

    @classmethod
    def create(cls, seed: int = 0, latency: Optional[Any] = None,
               loss_rate: float = 0.0, faults: Optional[Any] = None,
               tracing: bool = False, wall_clock: bool = False,
               resilient: bool = False,
               retry: Optional[RetryPolicy] = None,
               breaker: Optional[CircuitBreaker] = None,
               overload: Optional[OverloadConfig] = None,
               adversary: Optional[Any] = None) -> "Fabric":
        """Build a full fabric from a seed.

        ``tracing=True`` installs a real :class:`~repro.obs.trace.Tracer`
        (``wall_clock=True`` additionally records segregated wall-clock
        span durations).  ``resilient=True`` — or passing ``retry`` /
        ``breaker`` — wires a :class:`ReliableChannel` that the overlays
        and backends pick up automatically.
        ``overload=OverloadConfig(...)`` installs the overload-protection
        stack (per-peer service queues + shedding on the network,
        deadline minting for lookups and quorum reads, a shared retry
        budget on the channel, adaptive attempt timeouts); ``None``
        keeps the fair-weather fabric byte-identical.
        ``adversary=AdversaryConfig(...)`` attaches an
        :class:`~repro.adversary.AdversaryModel` (routing-layer attacks
        and, with a ``defense``, the secure-lookup stack); ``None`` — or
        even an attached adversary, which draws nothing — leaves every
        RNG stream untouched.
        """
        sim = Simulator(seed)
        tracer = Tracer(lambda: sim.now, wall_clock=wall_clock) if tracing \
            else NOOP_TRACER
        network = SimNetwork(sim, latency=latency, loss_rate=loss_rate,
                             faults=faults, tracer=tracer)
        channel = None
        if resilient or retry is not None or breaker is not None:
            channel = ReliableChannel(network, retry, breaker)
        fabric = cls(sim, network, channel=channel, overload=overload)
        if adversary is not None:
            from repro.adversary import AdversaryModel
            AdversaryModel(fabric, adversary)  # attaches itself
        return fabric

    # -- the RPC seam -----------------------------------------------------------

    @property
    def resilient(self) -> bool:
        """Whether RPCs ride a :class:`ReliableChannel` — i.e. whether a
        failed call already survived retries (callers then degrade
        gracefully and write the peer off) or is one lost exchange."""
        return self.channel is not None

    def call_issue(self, src: str, dst: str, kind: str,
                   deadline: Optional[Deadline] = None) -> SimFuture:
        """Issue one accounted RPC as a completion token.

        With a channel the call gets retries, breakers and the membership
        liveness policy and honours ``deadline`` (the caller's
        *remaining* budget); the bare network ignores it — deadline
        enforcement is channel machinery.
        """
        if self.channel is not None:
            return self.channel.call_issue(src, dst, kind=kind,
                                           deadline=deadline)
        return self.network.rpc_issue(src, dst, kind=kind)

    def call(self, src: str, dst: str, kind: str) -> Tuple[bool, float]:
        """One accounted RPC: ``(ok, elapsed)`` of :meth:`call_issue`."""
        return self.call_issue(src, dst, kind).value

    def op(self, origin: str, distrust: FrozenSet[str] = frozenset(),
           visited: Optional[Set[str]] = None,
           certified: bool = False) -> "OpContext":
        """Mint the context of one logical operation started by ``origin``.

        The overload config (if any) gives it a fresh time budget — the
        clock is frozen during an operation, so a nested one's budget
        ends when its caller's does.  The keyword arguments are the
        secure-lookup drivers' per-path state.
        """
        deadline = None if self.overload is None \
            else self.overload.mint_deadline(self.sim.now)
        return OpContext(self, origin, deadline, distrust, visited,
                         certified)

    def secure_lookup(self, space: str) -> Optional[Any]:
        """The defended lookup driver for one overlay id space — ``None``
        unless the adversary model carries a defense, in which case the
        overlays' public ``lookup`` hands it the whole operation."""
        if self.adversary is None or self.adversary.config.defense is None:
            return None
        from repro.adversary import defense
        return {"chord": defense.defended_chord_lookup,
                "kad": defense.defended_kad_lookup}[space]

    def attach_membership(self, membership: Any) -> None:
        """Install a membership service as the fabric's liveness source.

        Called by ``SwimMembership.__init__``; the channel, every
        :class:`OpContext` and the repair daemon pick it up from here.
        """
        if self.membership is not None:
            raise SimulationError(
                "a membership service is already attached to this fabric")
        self.membership = membership
        if self.channel is not None:
            self.channel.membership = membership

    def attach_adversary(self, adversary: Any) -> None:
        """Install an adversary model (called by its constructor)."""
        if self.adversary is not None:
            raise SimulationError(
                "an adversary model is already attached to this fabric")
        self.adversary = adversary

    @property
    def rng(self) -> _random.Random:
        """A fabric-scoped RNG, split from the seed on first use.

        Lazy so that fabrics which never draw from it leave the
        simulator's random stream untouched (exact pre-Fabric streams).
        """
        if self._rng is None:
            self._rng = self.sim.split_rng("fabric")
        return self._rng

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Fabric(nodes={len(self.network.nodes)}, "
                f"resilient={self.resilient}, "
                f"tracing={self.tracer.enabled})")


class OpContext:
    """One logical operation's view of the fabric's cross-cutting state.

    Overlays and stores ask it *whether* to go on, *whom* to ask first
    and *what* a responder answered; how overload protection, membership
    and the adversary model produce those answers stays in here.

    ``spent`` is the virtual time consumed so far: the accounted-RPC
    shortcut keeps the clock frozen during an operation, so
    :meth:`call` / :meth:`call_issue` add each RPC's elapsed time and the
    callee sees only the remaining budget.  ``distrust`` (peers excluded
    from *route selection*, never from being resolved to), ``visited``
    (responders consulted, ``None`` = nobody is counting) and
    ``certified`` (check node-id claims against certificates) are set by
    the secure-lookup drivers only.
    """

    __slots__ = ("fabric", "origin", "deadline", "distrust", "visited",
                 "certified", "spent", "_avoid")

    def __init__(self, fabric: Fabric, origin: str,
                 deadline: Optional[Deadline], distrust: FrozenSet[str],
                 visited: Optional[Set[str]], certified: bool) -> None:
        self.fabric = fabric
        self.origin = origin
        self.deadline = deadline
        self.distrust = distrust
        self.visited = visited
        self.certified = certified
        self.spent = 0.0
        self._avoid: Optional[Set[str]] = None

    # -- the deadline ------------------------------------------------------------

    def expired(self, kind: str) -> bool:
        """Whether the time spent has exhausted the budget (asked before
        paying for the next RPC; an expiry is counted once per ask)."""
        return self.deadline is not None and deadline_expired(
            self.fabric.network, self.deadline, self.spent, kind)

    def call(self, src: str, dst: str, kind: str) -> Tuple[bool, float]:
        """One RPC charged to this operation: ``(ok, elapsed)``.  The
        callee sees only the budget that is left."""
        # spelled out rather than call_issue(...).value: every lookup hop
        # comes through here
        deadline = self.deadline
        future = self.fabric.call_issue(
            src, dst, kind,
            None if deadline is None else deadline.minus(self.spent))
        self.spent += future.latency
        return future.value

    def call_issue(self, src: str, dst: str, kind: str,
                   fanout: bool = False) -> SimFuture:
        """:meth:`call` as a completion token (for its failure ``cause``).

        ``fanout`` marks one branch of a fan-out: branches overlap, so
        the operation has spent the slowest of them rather than their
        sum.
        """
        deadline = self.deadline
        future = self.fabric.call_issue(
            src, dst, kind,
            None if deadline is None else deadline.minus(self.spent))
        if fanout:
            self.spent = max(self.spent, future.latency)
        else:
            self.spent += future.latency
        return future

    # -- whom to ask, whom to route around ----------------------------------------

    def order(self, holders: Sequence[str]) -> Sequence[str]:
        """The one holder ordering: healthiest first, known liars last.

        The origin's membership view scores the candidates
        (confirmed-dead last, not dropped — a false confirmation must
        stay reachable as the probe of last resort); quarantined peers
        then sort behind every honest holder, so a quorum is met before
        a known liar is consulted.
        """
        fabric = self.fabric
        if fabric.membership is not None:
            holders = fabric.membership.order_by_health(self.origin, holders)
        adversary = fabric.adversary
        if adversary is not None and adversary.quarantine is not None:
            holders = adversary.quarantine.order_last(holders)
        return holders

    def _view(self) -> Optional[Any]:
        membership = self.fabric.membership
        return None if membership is None \
            else membership.view_of(self.origin)

    @property
    def avoid(self) -> Set[str]:
        """Peers routing detours: pre-seeded with those the origin's view
        has confirmed dead, grown by :meth:`write_off`."""
        if self._avoid is None:
            view = self._view()
            self._avoid = set() if view is None else set(view.dead)
        return self._avoid

    def write_off(self, peer: str) -> None:
        """``peer`` stayed unresponsive: detour it from here on — where
        that verdict is trustworthy (it survived the channel's retries,
        or a membership view vouches for liveness).  A bare client has
        no failure memory and keeps re-probing."""
        if self.fabric.resilient or self._view() is not None:
            self.avoid.add(peer)

    # -- what a responder answered --------------------------------------------------

    def visit(self, responder: str) -> None:
        """Note a peer this path asked, for the disjoint-path bookkeeping
        (:meth:`answer` does it for every responder it is asked about)."""
        if self.visited is not None:
            self.visited.add(responder)

    def answer(self, space: str, responder: str, key: str) -> Optional[Any]:
        """The adversary's interposition on one routing answer.

        ``None``: ``responder`` is honest, the overlay's geometry
        applies.  Otherwise the forged ``ChordAnswer`` / ``KadAnswer`` a
        bare client cannot tell from the truth (its claims already
        checked when ``certified``).  Raises :class:`LookupError_` when
        the responder swallowed the query or presented a provably forged
        id.
        """
        if self.visited is not None:
            self.visited.add(responder)
        adversary = self.fabric.adversary
        if adversary is None:
            return None
        answer = adversary.chord_answer(responder, key) if space == "chord" \
            else adversary.kad_answer(responder, key)
        if answer is None:
            return None
        if answer.drop:
            raise LookupError_(
                f"{responder!r} swallowed the lookup for {key!r} "
                "(adversarial drop)")
        for name, claimed_id in answer.claims:
            self.check_claim(space, responder, name, claimed_id)
        return answer

    def check_claim(self, space: str, responder: str, name: str,
                    claimed_id: Optional[int] = None) -> None:
        """Verify one node-id claim of ``responder``'s when ``certified``.

        ``claimed_id=None`` checks the id an honest ``name`` presents: it
        cannot fail, but runs the real certificate verification every
        routing response pays for (cached per name).  A failed check
        quarantines ``responder`` and raises :class:`LookupError_`.
        """
        if not self.certified:
            return
        adversary = self.fabric.adversary
        if claimed_id is None:
            claimed_id = adversary.certified_id(space, name)
        if not adversary.check_claim(space, name, claimed_id):
            adversary.flag_cert_liar(responder, overlay=space)
            raise LookupError_(
                f"{responder!r} presented a provably forged node-id "
                f"claim for {name!r}")


def coerce_fabric(fabric: Any, caller: str) -> Fabric:
    """Reject anything but a :class:`Fabric` with a readable error."""
    if not isinstance(fabric, Fabric):
        raise TypeError(
            f"{caller} expects a repro.fabric.Fabric "
            f"(got {type(fabric).__name__})")
    return fabric
