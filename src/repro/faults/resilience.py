"""Resilient messaging over the simulated fabric.

:class:`ReliableChannel` wraps :meth:`SimNetwork.rpc_issue` with the
machinery real P2P stacks use to survive the faults
:mod:`repro.faults.plan` injects:

* **bounded retries** with exponential backoff and jitter
  (:class:`RetryPolicy`) — masks transient loss bursts;
* **per-destination circuit breakers** (:class:`CircuitBreaker`) — after
  repeated failures a destination is considered down and further calls
  fail fast without paying message cost, until a cooldown expires and a
  half-open probe is allowed through;
* **hedged calls** against replica sets (:meth:`ReliableChannel.hedged`)
  — the first reachable holder serves the request, so a crashed or
  partitioned owner does not make the content unavailable;
* **overload awareness** (opt-in, see :mod:`repro.faults.overload`) —
  calls accept a propagated :class:`~repro.faults.overload.Deadline`
  and fail fast once it expires, retries draw from a shared
  :class:`~repro.faults.overload.RetryBudget` token bucket, and a shed
  (``overloaded``) response never feeds the circuit breaker.

Every retry, breaker trip, fast-fail, and hedge is counted once, in the
network's metrics registry (``NetworkStats`` sums them back up), so
experiment E12 can price the resilience (extra messages) against what it
buys (success rate).

Backoff delays are virtual-time bookkeeping: they are added to the
reported elapsed time of a call rather than scheduled as events —
consistent with the accounted-RPC shortcut the DHT lookups already use.
"""

from __future__ import annotations

import random as _random
from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Set, Tuple

from repro.exceptions import SimulationError
from repro.faults.overload import (NO_DEADLINE, Deadline, RetryBudget,
                                   deadline_expired)
from repro.overlay.simulator import Reply, hedge_of


#: :class:`RetryPolicy` backoff: retry ``n`` (0-based) waits
#: ``RETRY_BASE_DELAY * RETRY_MULTIPLIER ** n`` virtual seconds, capped at
#: ``RETRY_MAX_DELAY`` (far above what a few attempts reach: without a cap
#: a long retry loop could sleep for hours of virtual time), times a
#: jitter factor drawn uniformly from ``1 ± RETRY_JITTER``
RETRY_BASE_DELAY = 0.25
RETRY_MULTIPLIER = 2.0
RETRY_JITTER = 0.5
RETRY_MAX_DELAY = 30.0


@dataclass
class RetryPolicy:
    """Bounded retries with exponential backoff and jitter."""

    max_attempts: int = 3

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise SimulationError("need at least one attempt")

    def backoff(self, attempt: int, rng: _random.Random) -> float:
        """Delay before retry number ``attempt`` (0-based), capped."""
        delay = min(RETRY_BASE_DELAY * (RETRY_MULTIPLIER ** attempt),
                    RETRY_MAX_DELAY)
        return delay * (1.0 + RETRY_JITTER * (2.0 * rng.random() - 1.0))


#: :class:`CircuitBreaker`: consecutive failures that open it, and the
#: virtual seconds it stays open before admitting a half-open probe
BREAKER_FAILURE_THRESHOLD = 4
BREAKER_COOLDOWN = 30.0


@dataclass
class CircuitBreaker:
    """Per-destination breaker: closed -> open -> half-open -> closed.

    ``BREAKER_FAILURE_THRESHOLD`` consecutive failures open the breaker
    for ``BREAKER_COOLDOWN`` virtual seconds; while open, calls fail fast.
    After the cooldown exactly **one** half-open probe is admitted per
    destination; concurrent callers fail fast until that probe's outcome
    is recorded (success closes the breaker, failure re-opens it, a shed
    releases the slot for the next caller).  Without the
    single-probe claim, every caller whose cooldown had elapsed would
    stampede the recovering peer at once — the thundering herd the
    breaker exists to prevent.
    """

    _failures: Dict[str, int] = field(default_factory=dict, repr=False)
    _opened_at: Dict[str, float] = field(default_factory=dict, repr=False)
    #: destinations with a half-open probe currently in flight
    _probing: Set[str] = field(default_factory=set, repr=False)

    def allow(self, dst: str, now: float) -> bool:
        """Whether a call to ``dst`` may proceed at virtual time ``now``.

        An allowed call against an open-but-cooled-down destination
        *claims* the single half-open probe slot; the caller must report
        back via :meth:`record_success` / :meth:`record_failure` /
        :meth:`release_probe` to release it.
        """
        opened = self._opened_at.get(dst)
        if opened is None:
            return True
        if now - opened >= BREAKER_COOLDOWN and dst not in self._probing:
            self._probing.add(dst)  # the one half-open probe
            return True
        return False

    def record_success(self, dst: str) -> None:
        """A call to ``dst`` succeeded: close the breaker."""
        self._failures.pop(dst, None)
        self._opened_at.pop(dst, None)
        self._probing.discard(dst)

    def record_failure(self, dst: str, now: float) -> bool:
        """A call to ``dst`` failed; returns True when this trips it open."""
        if dst in self._opened_at:
            self._opened_at[dst] = now  # failed half-open probe re-opens
            self._probing.discard(dst)
            return False
        count = self._failures.get(dst, 0) + 1
        self._failures[dst] = count
        if count >= BREAKER_FAILURE_THRESHOLD:
            self._opened_at[dst] = now
            self._failures.pop(dst, None)
            return True
        return False

    def release_probe(self, dst: str) -> None:
        """The half-open probe to ``dst`` was shed: it proved nothing
        either way, so the breaker stays half-open and the next caller may
        probe."""
        self._probing.discard(dst)

    def quarantine(self, dst: str, now: float) -> None:
        """Force the breaker open for ``dst`` (adversary quarantine).

        Uses the same machinery as a trip, so the destination stays
        recoverable: after the cooldown a single half-open probe is
        admitted and a success closes the breaker again.
        """
        self._opened_at[dst] = now
        self._failures.pop(dst, None)

    def state(self, dst: str, now: float) -> str:
        """``closed`` / ``open`` / ``half_open`` for ``dst`` at ``now``."""
        opened = self._opened_at.get(dst)
        if opened is None:
            return "closed"
        if now - opened >= BREAKER_COOLDOWN:
            return "half_open"
        return "open"


#: Gauge encoding of breaker states (``channel.breaker_state{dst=...}``).
BREAKER_STATE_VALUES = {"closed": 0.0, "half_open": 0.5, "open": 1.0}

#: stagger (virtual seconds) between the launches of a
#: :meth:`ReliableChannel.hedged` race
HEDGE_DELAY = 0.05


class ReliableChannel:
    """Timeout/retry/breaker/hedging wrapper over a :class:`SimNetwork`.

    Protocols call :meth:`call_issue` where they would call
    ``network.rpc_issue`` (both return a
    :class:`~repro.overlay.simulator.Reply`); so do replica reads, one
    call per holder probed.  :meth:`hedged`, the staggered race, runs
    only in E17c (``benchmarks/bench_latency_fanout.py``).  The
    channel's RNG is split from the simulator seed, so retry jitter is
    deterministic.
    """

    def __init__(self, network, policy: Optional[RetryPolicy] = None,
                 breaker: Optional[CircuitBreaker] = None) -> None:
        self.network = network
        self.policy = policy or RetryPolicy()
        self.breaker = breaker
        #: the fabric's :class:`repro.membership.SwimMembership`, set by
        #: :meth:`attach_membership`.  When the *source* of a call has a
        #: membership view, that view replaces the fixed breaker
        #: thresholds: confirmed-dead destinations fail fast, suspicious
        #: ones get a single attempt, and the breaker is neither consulted
        #: nor updated for the call.
        self.membership = None
        self._view_of = lambda src: None
        #: a shared :class:`repro.faults.RetryBudget` capping cluster-wide
        #: retry amplification, set by :meth:`install_retry_budget`.
        #: ``None`` = unbudgeted retries (the legacy behaviour).
        self.retry_budget: Optional[RetryBudget] = None
        self._spend_retry = lambda: True
        self._earn_retry = lambda: None
        self._breaker_allows = lambda dst, now: True
        self._breaker_feedback = lambda dst, reply, now: None
        if breaker is not None:
            self._breaker_allows = self._breaker_admits
            self._breaker_feedback = self._feed_breaker
        self._rng = network.sim.split_rng("reliable-channel")

    def attach_membership(self, membership) -> None:
        """Use ``membership``'s views as the liveness policy."""
        self.membership = membership
        self._view_of = membership.view_of

    def install_retry_budget(self) -> None:
        """Cap retries with a shared :class:`RetryBudget`."""
        budget = self.retry_budget = RetryBudget()
        self._spend_retry = budget.try_spend
        self._earn_retry = budget.on_success

    def _export_breaker_state(self, dst: str) -> None:
        """Publish the breaker's view of ``dst`` as a labelled gauge."""
        state = self.breaker.state(dst, self.network.sim.now)
        self.network.metrics.gauge("channel.breaker_state", dst=dst).set(
            BREAKER_STATE_VALUES[state])

    def _breaker_admits(self, dst: str, now: float) -> bool:
        """Whether the breaker lets an attempt through (a membership view
        replaces it, so it is asked only for sources without one)."""
        if self.breaker.allow(dst, now):
            return True
        self.network.metrics.inc("channel.breaker_fastfails")
        self._export_breaker_state(dst)
        return False

    def _feed_breaker(self, dst: str, reply: Reply, now: float) -> None:
        """A shed attempt never feeds the breaker: the peer is alive and
        saying so, and opening the breaker on honesty would punish exactly
        the peers that shed instead of timing out.  It does release a
        half-open probe slot, or the breaker would stay half-open for good
        with no caller let through."""
        if reply.cause == "overloaded":
            self.breaker.release_probe(dst)
            return
        if reply.ok:
            self.breaker.record_success(dst)
        elif self.breaker.record_failure(dst, now):
            self.network.metrics.inc("channel.breaker_trips")
        self._export_breaker_state(dst)

    def _attempt(self, view, src: str, dst: str, kind: str,
                 now: float) -> Reply:
        """One wire attempt, its outcome fed to the view or the breaker."""
        reply = self.network.rpc_issue(src, dst, kind=kind)
        if view is None:
            self._breaker_feedback(dst, reply, now)
        elif reply.ok:
            view.observe_contact(dst, now)
        return reply

    def call(self, src: str, dst: str, kind: str = "rpc",
             deadline: Deadline = NO_DEADLINE) -> Tuple[bool, float]:
        """:meth:`call_issue` as ``(ok, elapsed)``."""
        return self.call_issue(src, dst, kind, deadline)[:2]

    def call_issue(self, src: str, dst: str, kind: str = "rpc",
                   deadline: Deadline = NO_DEADLINE) -> Reply:
        """One logical request/response with retries and breaker checks.

        Returns the call's :class:`~repro.overlay.simulator.Reply`: its
        ``latency`` includes every attempt's RTT/timeout plus backoff
        waits, and its ``cause`` is the last attempt's failure cause
        (``"overloaded"`` for a shed), so quorum layers can price sheds
        differently from timeouts.  The retries are sequential (each
        depends on the previous timeout); independent calls overlap, and
        their caller prices the fan-out from the replies' latencies.  On
        a traced fabric the logical call is one ``channel.call`` span
        whose children are the per-attempt ``net.rpc`` spans; backoff
        waits are charged to the channel span itself.

        With a membership view for ``src`` the liveness policy is
        adaptive instead of threshold-based: a destination the view has
        confirmed dead fails fast (``membership_fastfail``), one whose
        phi exceeds the suspect level gets a single attempt (retries are
        for peers believed alive), and a successful call feeds back into
        the view as proof of life.

        Overload protection (all opt-in): an expired ``deadline`` fails
        the call before the next attempt is issued; retries beyond the
        first attempt draw from the channel's shared
        :attr:`retry_budget` when one is set (an empty bucket means no
        retry); a shed attempt (the destination rejected for overload)
        does **not** feed the circuit breaker.
        """
        with self.network.tracer.span("channel.call", kind=kind, src=src,
                                      dst=dst) as span:
            elapsed = 0.0
            attempts = 0
            outcome = "exhausted"
            cause: Optional[str] = None
            max_attempts = self.policy.max_attempts
            view = self._view_of(src)
            if view is not None:
                if view.is_dead(dst):
                    self.network.metrics.inc("channel.membership_fastfails",
                                             kind=kind)
                    span.set_attr("attempts", 0)
                    span.set_attr("outcome", "membership_fastfail")
                    return Reply(False, 0.0, "membership_fastfail")
                if view.suspicious(dst, self.network.sim.now):
                    max_attempts = 1
            for attempt in range(max_attempts):
                now = self.network.sim.now
                if deadline_expired(self.network, deadline, elapsed, kind):
                    # nobody is waiting for this answer any more: fail
                    # fast instead of issuing a doomed attempt
                    outcome = cause = "deadline_expired"
                    break
                if view is None and not self._breaker_allows(dst, now):
                    outcome = "breaker_fastfail"
                    cause = cause or "breaker_fastfail"
                    break
                attempts += 1
                reply = self._attempt(view, src, dst, kind, now)
                cause = reply.cause
                elapsed += reply.latency
                if reply.ok:
                    self._earn_retry()
                    span.set_attr("attempts", attempts)
                    span.set_attr("outcome", "ok")
                    return Reply(True, elapsed, None)
                if attempt + 1 < max_attempts:
                    if not self._spend_retry():
                        self.network.metrics.inc("overload.budget_exhausted",
                                                 kind=kind)
                        outcome = "budget_exhausted"
                        break
                    self.network.metrics.inc("channel.retries", kind=kind)
                    backoff = self.policy.backoff(attempt, self._rng)
                    elapsed += backoff
                    span.add_cost(backoff)
            span.set_attr("attempts", attempts)
            span.set_attr("outcome", outcome)
            return Reply(False, elapsed, cause)

    def hedged(self, src: str, dsts: Sequence[str], kind: str = "rpc",
               deadline: Deadline = NO_DEADLINE
               ) -> Tuple[bool, Optional[str], float]:
        """Race a request across replica holders; first success wins.

        Each candidate gets one attempt (the hedge replaces the retry);
        returns ``(ok, winner, elapsed)``.

        With a membership view for ``src`` the candidates are reordered
        by health score first — healthy holders are probed before
        suspects, confirmed-dead ones last (still probed: on this
        last-resort path a false confirmation must not lose the read).

        The race is :func:`repro.overlay.simulator.hedge_of` with
        :data:`HEDGE_DELAY` between launches (a spent ``deadline`` stops
        launching); ``elapsed`` is the winner's completion offset.
        """
        with self.network.tracer.span("channel.hedged", kind=kind,
                                      src=src) as span:
            view = self._view_of(src)
            if view is not None:
                dsts = self.membership.order_by_health(src, dsts)

            def issue(dst: str, launch_at: float):
                now = self.network.sim.now
                if deadline_expired(self.network, deadline, launch_at, kind):
                    return None
                if view is None and not self._breaker_allows(dst, now):
                    return (None, False)
                reply = self._attempt(view, src, dst, kind, now)
                return (reply.latency, reply.ok)

            winner, elapsed, hedges = hedge_of(dsts, HEDGE_DELAY, issue)
            if hedges:
                self.network.metrics.inc("net.hedges", hedges, kind=kind)
            span.set_attr("winner", winner)
            span.settle_cost(elapsed)
            return (winner is not None, winner, elapsed)
