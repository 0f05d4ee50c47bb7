"""The :class:`Fabric`: one context object for the whole simulation stack.

It bundles the five cross-cutting objects

    ``sim`` · ``network`` · ``channel`` · ``tracer`` · ``metrics``

and is what you pass to ``ChordRing``, ``KademliaOverlay``,
``HybridOverlay`` and ``DosnNetwork``::

    fab = Fabric.create(seed=7)                      # plain fabric
    fab = Fabric.create(seed=7, tracing=True)        # with a real tracer
    fab = Fabric.create(seed=7, faults=plan,         # chaos + resilience
                        resilient=True)
    ring = ChordRing(fab, replication=3)             # channel wired in

Determinism note: RNGs split in a fixed order (``network`` first, then
``reliable-channel`` when resilient), so attaching a subsystem moves no
experiment's random stream.

**The RPC seam.**  Overlays and stores keep routing geometry and storage
semantics; the RPC path's cross-cutting concerns meet them only here:
``Fabric.call`` puts every RPC on the wire and returns its ``Reply``, and
:meth:`Fabric.op` mints the :class:`OpContext` of each public operation,
which owns the deadline check, the holder ordering and the adversary's
interposition on routing answers.  Each attachment is decided once, where
it attaches, and no operation asks whether a subsystem is present:
``__init__`` binds ``call`` to the channel or the bare network,
:meth:`install_overload` the deadline minter, and
:meth:`attach_membership` / :meth:`attach_adversary` the policies
:class:`OpContext` calls (the adversary before any peer registers: the
overlays enroll peers and pick their lookup driver as they are built).
"""

from __future__ import annotations

from typing import Any, FrozenSet, Optional, Sequence, Set

from repro.exceptions import LookupError_, SimulationError
from repro.faults.overload import (NO_DEADLINE, Deadline, OverloadConfig,
                                   deadline_expired)
from repro.faults.resilience import (CircuitBreaker, ReliableChannel,
                                     RetryPolicy)
from repro.obs.trace import NOOP_TRACER, Tracer
from repro.overlay.network import SimNetwork
from repro.overlay.simulator import Reply, Simulator

__all__ = ["Fabric", "OpContext"]


class Fabric:
    """Simulator + network + resilience + observability, as one handle."""

    def __init__(self, sim: Simulator, network: SimNetwork,
                 channel: Optional[ReliableChannel] = None,
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
        #: whether RPCs ride a :class:`ReliableChannel` — i.e. whether a
        #: failed call already survived retries (callers then degrade
        #: gracefully and write the peer off) or is one lost exchange
        self.resilient = channel is not None
        #: ``call(src, dst, kind)``: one accounted RPC's
        #: :class:`~repro.overlay.simulator.Reply`, on the channel or the
        #: network; ``_op_issue`` also hands the channel the budget an
        #: operation has left.
        if channel is None:
            issue = self.call = network.rpc_issue
            self._op_issue = lambda ctx, src, dst, kind: issue(src, dst, kind)
        else:
            self.call = channel.call_issue
            self._op_issue = lambda ctx, src, dst, kind: channel.call_issue(
                src, dst, kind, ctx.deadline.minus(ctx.spent))
        #: the attached :class:`repro.membership.SwimMembership` (None
        #: keeps every layer on the legacy oracle path, byte-identical)
        self.membership: Optional[Any] = None
        #: the attached :class:`repro.adversary.AdversaryModel` (None
        #: keeps lookups trusting and byte-identical; even attached, the
        #: adversary draws no RNG — its decisions are hash-derived)
        self.adversary: Optional[Any] = None
        #: the overload-protection config (None = fair-weather fabric,
        #: byte-identical) — see :meth:`install_overload`
        self.overload: Optional[OverloadConfig] = None
        # The policies OpContext and the overlays call, as nothing
        # attached leaves them: no deadline, holders as given, no peer
        # buried, silence trusted only after the channel's retries, every
        # responder honest.  install_overload / attach_* rebind them.
        self._mint = lambda now: NO_DEADLINE
        self._by_health = lambda origin, holders: holders
        self._liars_last = lambda holders: holders
        self._buried_by = lambda origin: ()
        self._trusts_silence = lambda origin: self.resilient
        self._forges = dict.fromkeys(("chord", "kad"),
                                     lambda responder, key: None)
        #: ``enroll(name, space)``: register an overlay peer with the
        #: adversary (the overlays' ``add_node`` calls it)
        self.enroll = lambda name, space: None
        if overload is not None:
            self.install_overload(overload)

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

    def op(self, origin: str, distrust: FrozenSet[str] = frozenset(),
           visited: Optional[Set[str]] = None,
           certified: bool = False) -> "OpContext":
        """Mint the context of one logical operation started by ``origin``.

        The overload config (if any) gives it a fresh time budget — the
        clock is frozen during an operation, so a nested one's budget
        ends when its caller's does.  The keyword arguments are the
        secure-lookup drivers' per-path state.
        """
        return OpContext(self, origin, self._mint(self.sim.now), distrust,
                         visited, certified)

    # -- attachments --------------------------------------------------------------

    def install_overload(self, overload: OverloadConfig) -> None:
        """The overload-protection stack: the network's service model, a
        deadline per operation when ``op_budget`` is set and the channel's
        retry budget when ``retry_budget`` is (E18 installs it after
        set-up, to keep the bootstrap out of the service queues)."""
        self.network.install_overload(overload)
        self.overload = overload
        if overload.op_budget is not None:
            self._mint = overload.mint_deadline
        if self.channel is not None and overload.retry_budget:
            self.channel.install_retry_budget()

    def attach_membership(self, membership: Any) -> None:
        """Install a membership service as the fabric's liveness source.

        Called by ``SwimMembership.__init__``; the channel, every
        :class:`OpContext` and the repair daemon pick it up from here.
        """
        if self.membership is not None:
            raise SimulationError(
                "a membership service is already attached to this fabric")
        self.membership = membership
        views = membership.views
        self._by_health = membership.order_by_health
        self._buried_by = lambda origin: views[origin].dead \
            if origin in views else ()
        if self.channel is None:
            self._trusts_silence = views.__contains__
        else:
            self.channel.attach_membership(membership)

    def attach_adversary(self, adversary: Any) -> None:
        """Install an adversary model (called by its constructor) before
        any peer registers: the overlays enroll a peer as it is added and
        pick their lookup driver when built."""
        if self.adversary is not None:
            raise SimulationError(
                "an adversary model is already attached to this fabric")
        if self.network.nodes:
            raise SimulationError(
                "attach the adversary before peers register: peers added "
                "earlier are never enrolled")
        self.adversary = adversary
        self.enroll = adversary.enroll
        self._forges = {"chord": adversary.chord_answer,
                        "kad": adversary.kad_answer}
        if adversary.quarantine is not None:
            self._liars_last = adversary.quarantine.order_last

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
    shortcut keeps the clock frozen during an operation, so :meth:`call`
    adds each RPC's elapsed time and the callee sees only the remaining
    budget.  ``distrust`` (peers excluded from *route selection*, never
    from being resolved to), ``visited`` (responders consulted, ``None``
    = nobody is counting) and ``certified`` (check node-id claims against
    certificates) are set by the secure-lookup drivers only.
    """

    __slots__ = ("fabric", "origin", "deadline", "distrust", "visited",
                 "certified", "spent", "_avoid")

    def __init__(self, fabric: Fabric, origin: str, deadline: Deadline,
                 distrust: FrozenSet[str], visited: Optional[Set[str]],
                 certified: bool) -> None:
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
        # the unexpired case spelled out: every lookup hop asks
        fabric = self.fabric
        if self.deadline.expires_at - fabric.sim.now > self.spent:
            return False
        return deadline_expired(fabric.network, self.deadline, self.spent,
                                kind)

    def call(self, src: str, dst: str, kind: str,
             fanout: bool = False) -> Reply:
        """One RPC charged to this operation; the callee sees only the
        budget that is left.

        ``fanout`` marks one branch of a fan-out: branches overlap, so
        the operation has spent the slowest of them rather than their
        sum.
        """
        reply = self.fabric._op_issue(self, src, dst, kind)
        if fanout:
            self.spent = max(self.spent, reply.latency)
        else:
            self.spent += reply.latency
        return reply

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
        return fabric._liars_last(fabric._by_health(self.origin, holders))

    @property
    def avoid(self) -> Set[str]:
        """Peers routing detours: pre-seeded with those the origin's view
        has confirmed dead, grown by :meth:`write_off`."""
        if self._avoid is None:
            self._avoid = set(self.fabric._buried_by(self.origin))
        return self._avoid

    def write_off(self, peer: str) -> None:
        """``peer`` stayed unresponsive: detour it from here on — where
        that verdict is trustworthy (it survived the channel's retries,
        or a membership view vouches for liveness).  A bare client has
        no failure memory and keeps re-probing."""
        if self.fabric._trusts_silence(self.origin):
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
        answer = self.fabric._forges[space](responder, key)
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
