"""Simulated message-passing network and peer base class.

Two communication styles, matching how the overlay protocols are written:

* **asynchronous messages** — :meth:`SimNetwork.send` schedules delivery of
  a :class:`Message` to the destination's ``on_<kind>`` handler after a
  latency sample (gossip and churn-driven protocols use this);
* **accounted RPC** — :meth:`SimNetwork.rpc_issue` models a synchronous
  request/response against an online peer: it charges two messages and one
  round trip to the statistics and returns the outcome at once, as a
  :class:`~repro.overlay.simulator.Reply` ``(ok, latency, cause)`` (the
  iterative DHT lookups use this — the classic simulation shortcut that
  preserves hop and message counts without continuation-passing every
  protocol step).

Every message and every failure is counted once, in the attached
:class:`repro.obs.MetricsRegistry` — failures dimensionally (kind × cause
× direction) — and :class:`NetworkStats`, which the experiments read for
their cost series, is a read-only view derived from those counters
(:data:`STATS_FIELDS`).  Every send also opens a span on the attached
tracer (a no-op by default), and on a traced network so does every RPC —
see :mod:`repro.obs` and :class:`repro.fabric.Fabric`.

Beyond the benign i.i.d. loss process, the fabric can carry an installed
:class:`repro.faults.FaultPlan` (see :meth:`SimNetwork.install_faults`):
partitions, correlated loss bursts, slow links, crash/restart, and message
corruption, all deterministic from the simulator seed.  Experiment E12
stresses the overlay protocols through this hook.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Any, Dict, NoReturn, Optional, Tuple

from repro.exceptions import OverlayError, SimulationError
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import NOOP_SPAN, NOOP_TRACER
from repro.overlay.simulator import Reply, Simulator, UniformLatency


@dataclass
class Message:
    """An overlay message: a kind tag plus an arbitrary payload dict.

    ``corrupted`` is set by the fault layer when the message was delivered
    but garbled in flight — integrity mechanisms are expected to detect it.
    """

    kind: str
    src: str
    dst: str
    payload: Dict[str, Any] = field(default_factory=dict)
    corrupted: bool = False

    def size_estimate(self) -> int:
        """Crude byte-size estimate for bandwidth accounting."""
        return 64 + sum(len(str(k)) + len(str(v))
                        for k, v in self.payload.items())


#: The one derivation of the flat aggregates: field -> the counter
#: families it sums, each as ``(family, label, values)`` — every member of
#: ``family`` whose ``label`` is one of ``values`` (``label=None``: the
#: whole family).  docs/observability.md renders this table.
STATS_FIELDS: Dict[str, Tuple[
    Tuple[str, Optional[str], Tuple[str, ...]], ...]] = {
    "messages": (("net.messages", None, ()),),
    "bytes": (("net.bytes", None, ()),),
    "drops": (("net.send_drops", None, ()),),
    # every abandoned attempt the caller waited out; a corrupted response
    # and a shed come back at once, so neither is a timeout
    "timeouts": (("net.rpc_failures", "cause",
                  ("partition", "offline", "loss", "fault", "slow")),),
    "corrupted": (("net.corrupted", None, ()),
                  ("net.rpc_failures", "cause", ("corruption",))),
    "retries": (("channel.retries", None, ()),),
    "breaker_trips": (("channel.breaker_trips", None, ()),),
    "breaker_fastfails": (("channel.breaker_fastfails", None, ()),
                          ("channel.membership_fastfails", None, ())),
    "hedges": (("net.hedges", None, ()),),
    # losses an installed fault plan caused, one-way and RPC alike
    "fault_drops": (("net.send_drops", "cause", ("partition", "fault")),
                    ("net.rpc_failures", "cause", ("partition", "fault"))),
    "shed": (("overload.sheds", None, ()),),
    "deadline_expired": (("overload.deadline_expired", None, ()),),
    "budget_exhausted": (("overload.budget_exhausted", None, ()),),
    "misrouted": (("adversary.misroutes", None, ()),),
    "forged_routes": (("adversary.forged_routes", None, ()),),
}


class NetworkStats:
    """Aggregate traffic counters: a read-only view over the registry.

    Each field of :data:`STATS_FIELDS` reads as an attribute
    (``stats.timeouts``) and sums the labelled counters the table names,
    so the view can never disagree with the registry it derives from;
    nothing is stored here and assigning a field raises
    :class:`AttributeError`.  The base fields feed E5-E7, the resilience
    fields (``retries``, ``breaker_trips``, ``breaker_fastfails``,
    ``hedges``, ``fault_drops``, ``corrupted``) E12; the overload fields
    (``shed``, ``deadline_expired``, ``budget_exhausted``) stay zero
    unless an :class:`repro.faults.OverloadConfig` is installed (E18), the
    adversary fields (``misrouted``, ``forged_routes``) unless an
    :class:`repro.adversary.AdversaryConfig` is (E19; E12b's table proves
    they stay zero on the legacy path).

    A bare ``NetworkStats()`` views a registry of its own: all zeros.
    """

    __slots__ = ("_metrics", "_messages", "_bytes")

    def __init__(self, metrics: Optional[MetricsRegistry] = None) -> None:
        self._metrics = metrics if metrics is not None else MetricsRegistry()
        # the per-message pair is read per operation by the harnesses:
        # the same two handles SimNetwork bumps, no family walk
        self._messages = self._metrics.counter("net.messages")
        self._bytes = self._metrics.counter("net.bytes")

    @property
    def messages(self) -> int:
        return self._messages.value

    @property
    def bytes(self) -> int:
        return self._bytes.value

    def __getattr__(self, name: str) -> int:
        try:
            sources = STATS_FIELDS[name]
        except KeyError:
            raise AttributeError(
                f"{type(self).__name__!r} object has no attribute "
                f"{name!r}") from None
        return sum(
            counter.value
            for family, label, values in sources
            for counter in self._metrics.family(family)
            if label is None or dict(counter.labels).get(label) in values)

    def reset(self) -> None:
        """Zero every member of every family the view reads, and nothing
        else (benchmarks call between phases; ``storage.*`` and the rest
        keep counting across them)."""
        for sources in STATS_FIELDS.values():
            for family, _label, _values in sources:
                for counter in self._metrics.family(family):
                    counter.value = 0

    def summary(self) -> Dict[str, int]:
        """Flat roll-up with *every* RPC failure cause accounted.

        ``failures`` covers both failure modes an RPC caller observes:
        timeouts (lost request/response, offline or partitioned peer)
        **and** corrupted responses — a corrupted response is a failure
        that is no timeout, so summing only timeouts under-counts.  E12
        reads this so its resilience tables balance against injected
        faults.
        """
        out = {name: getattr(self, name) for name in STATS_FIELDS}
        out["failures"] = out["timeouts"] + out["corrupted"]
        return out


class SimNode:
    """Base class for simulated peers.

    Subclasses implement ``on_<kind>(message)`` handlers for async traffic.
    ``online`` gates both delivery and RPC reachability — churn models flip
    it via :meth:`go_online` / :meth:`go_offline`.
    """

    def __init__(self, node_id: str) -> None:
        self.node_id = node_id
        self.online = True
        self.network: Optional["SimNetwork"] = None

    def attach(self, network: "SimNetwork") -> None:
        """Called by the network on registration."""
        self.network = network

    def go_online(self) -> None:
        """Bring the peer up (hook for subclasses to re-sync state)."""
        self.online = True

    def go_offline(self) -> None:
        """Take the peer down; in-flight messages to it will be dropped."""
        self.online = False

    def crash(self, lose_state: bool = True) -> None:
        """Fail the peer; with ``lose_state`` its volatile state is wiped.

        Used by :class:`repro.faults.Crash`.  Unlike a churn departure,
        a crashed-and-restarted peer comes back *empty* — recovering its
        data is the replication layer's job.
        """
        if lose_state:
            self.wipe_state()
        self.go_offline()

    def wipe_state(self) -> None:
        """Drop volatile state on crash.

        The default clears the conventional ``store`` dict the DHT nodes
        keep; subclasses with more state should extend this.
        """
        store = getattr(self, "store", None)
        if isinstance(store, dict):
            store.clear()

    def handle_message(self, message: Message) -> None:
        """Dispatch to ``on_<kind>``; unknown kinds raise."""
        handler = getattr(self, f"on_{message.kind}", None)
        if handler is None:
            raise OverlayError(
                f"{type(self).__name__} has no handler for "
                f"{message.kind!r}")
        handler(message)


_INF = math.inf
_new_tuple = tuple.__new__


def _reject_latency(latency: float) -> NoReturn:
    """Raise for a latency sample no RPC can take (NaN, infinite or
    negative); the settles call it before any span records the RPC."""
    raise SimulationError(
        f"RPC latency must be finite and >= 0 (got {latency})")


#: what an RPC's ``nodes.get`` answers for an unregistered peer: one that
#: is never online, so reachability is one attribute read
_UNKNOWN = SimpleNamespace(online=False)
#: what it answers for an unregistered *source*: a client outside the
#: fabric, up whenever it calls
_CLIENT = SimpleNamespace(online=True)


class SimNetwork:
    """The message fabric connecting :class:`SimNode` peers."""

    def __init__(self, sim: Simulator, latency: Optional[Any] = None,
                 loss_rate: float = 0.0, faults: Optional[Any] = None,
                 tracer: Optional[Any] = None) -> None:
        if not 0.0 <= loss_rate < 1.0:
            raise SimulationError("loss_rate must be in [0, 1)")
        self.sim = sim
        self.latency = latency or UniformLatency()
        self.loss_rate = loss_rate
        self.nodes: Dict[str, SimNode] = {}
        #: observability: a no-op tracer by default, and the registry
        #: every subsystem of the :class:`repro.fabric.Fabric` counts into
        self.tracer = tracer if tracer is not None else NOOP_TRACER
        # the tracer is fixed for the network's life, so whether an RPC
        # opens a ``net.rpc`` span is decided once, here; an untraced
        # loss-free network settles fair-weather until install_faults /
        # install_overload attach a policy
        if self.tracer.enabled:
            self._settle = self._rpc_traced
        elif loss_rate > 0:
            self._settle = self._rpc_inner
        else:
            self._settle = self._rpc_fair
        self.metrics = MetricsRegistry()
        self.stats = NetworkStats(self.metrics)
        # per-message hot path: the two handles resolved once, so an RPC
        # hashes no labels
        self._messages = self.metrics.counter("net.messages")
        self._bytes = self.metrics.counter("net.bytes")
        self._rng = sim.split_rng("network")
        #: the installed :class:`repro.faults.FaultPlan` (None: none)
        self.faults = None
        #: per-peer service model (None = fair-weather: RPCs are free for
        #: the server) — see :meth:`install_overload`
        self.service = None
        #: absolute virtual time until which each peer's queue is busy
        self._busy_until: Dict[str, float] = {}
        #: deepest backlog ever observed per destination (jobs waiting)
        self.queue_peak: Dict[str, int] = {}
        # What install_faults / install_overload rebind.  Until then every
        # link is open at full speed (``_link``: blocked?, latency factor)
        # and lossy only at ``loss_rate``, no holder lies, every request
        # is served on arrival and a timeout costs four RTTs.
        self._link = lambda src, dst, t: (False, 1.0)
        self._loss_cause = self._base_loss if loss_rate > 0 \
            else lambda src, dst, t: None
        self._corrupts = lambda src, dst, t: False
        #: ``holder_faults(holder, t)``: the Byzantine faults driving a
        #: holder (:meth:`repro.faults.FaultPlan.holder_faults`)
        self.holder_faults = lambda holder, t: ()
        self._admit = lambda dst, arrival: (True, 0.0)
        self._in_time = lambda dst, out, rtt: True
        self._timeout_cost = lambda dst, out: 4 * out
        self._observe_rtt = lambda dst, rtt: None
        if faults is not None:
            self.install_faults(faults)

    def install_faults(self, plan: Any) -> None:
        """Attach a :class:`repro.faults.FaultPlan` to the fabric.

        Binding materializes the plan's burst schedules from its seed and
        registers crash/restart events on the simulator; the plan's link
        and holder queries become the network's.
        """
        if self.faults is not None:
            raise SimulationError("a fault plan is already installed")
        plan.bind(self)
        self.faults = plan
        self._settle_generally()
        self._link = lambda src, dst, t: (plan.blocks(src, dst, t),
                                          plan.latency_factor(src, dst, t))
        self._loss_cause = self._fault_loss
        self._corrupts = self._fault_corrupts
        self.holder_faults = plan.holder_faults

    def install_overload(self, config: Any) -> None:
        """Attach an :class:`repro.faults.OverloadConfig` service model.

        With a :class:`~repro.faults.ServiceConfig` installed every RPC
        destination processes one request per ``service_time`` and keeps
        a bounded FIFO backlog; :meth:`rpc_issue` charges the queueing
        delay on top of wire latency, a full queue sheds, and an answer
        slower than the attempt timeout reads as one.  With
        ``adaptive_timeout`` on, successful RTTs per destination feed an
        EWMA that replaces the fixed attempt timeout.  Until one is
        installed no service state exists and every draw, span and
        counter is the fair-weather fabric's.
        """
        if self.service is not None:
            raise SimulationError("an overload config is already installed")
        service = self.service = config.service
        self._settle_generally()
        # what an abandoned attempt costs: the adaptive per-destination
        # estimate once it has a sample, else the service's fixed timeout,
        # else (as on the fair-weather fabric) four RTTs
        if service is not None:
            self._admit = self._enqueue
            self._in_time = self._answered_in_time
            self._timeout_cost = lambda dst, out: service.timeout
        if config.adaptive_timeout:
            from repro.faults.overload import AdaptiveTimeout
            adaptive = AdaptiveTimeout()
            fixed = self._timeout_cost
            self._timeout_cost = lambda dst, out: \
                adaptive.timeout_for(dst) or fixed(dst, out)
            self._observe_rtt = adaptive.observe

    def _settle_generally(self) -> None:
        """An attached policy takes the fair-weather settle's place (a
        traced network keeps its span around the general path)."""
        if not self.tracer.enabled:
            self._settle = self._rpc_inner

    def register(self, node: SimNode) -> None:
        """Add a peer to the fabric."""
        if node.node_id in self.nodes:
            raise OverlayError(f"duplicate node id {node.node_id!r}")
        self.nodes[node.node_id] = node
        node.attach(self)

    def node(self, node_id: str) -> SimNode:
        """Look up a registered peer."""
        try:
            return self.nodes[node_id]
        except KeyError:
            raise OverlayError(f"unknown node {node_id!r}")

    def is_online(self, node_id: str) -> bool:
        """Whether the peer exists and is currently up."""
        return self.nodes.get(node_id, _UNKNOWN).online

    # -- fault-aware draws ------------------------------------------------------

    def _base_loss(self, a: str, b: str, t: float) -> Optional[str]:
        """One direction's loss draw (``_loss_cause`` on a lossy network
        without a fault plan): None or 'loss'."""
        if self.loss_rate > 0 and self._rng.random() < self.loss_rate:
            return "loss"
        return None

    def _fault_loss(self, a: str, b: str, t: float) -> Optional[str]:
        """The base draw, then the plan's: None, 'loss' or 'fault'."""
        cause = self._base_loss(a, b, t)
        if cause is None:
            rate = self.faults.loss_rate(a, b, t)
            if rate > 0 and self._rng.random() < rate:
                return "fault"
        return cause

    def _fault_corrupts(self, a: str, b: str, t: float) -> bool:
        rate = self.faults.corruption_rate(a, b, t)
        return rate > 0 and self._rng.random() < rate

    # -- asynchronous messaging ------------------------------------------------

    def send(self, message: Message) -> None:
        """Queue delivery of ``message`` after a latency sample.

        Messages to offline/unknown peers or lost to the loss process are
        dropped; the sender is not notified (UDP semantics — the protocols
        on top implement their own retries where they need them).  Each
        drop is recorded in :attr:`metrics` as
        ``net.send_drops{kind=..., cause=...}`` (partition-blocked and
        burst-lost ones are the ``fault_drops``); corrupted messages are
        delivered flagged and counted as ``net.corrupted{kind=...}``.
        """
        self._messages.value += 1
        self._bytes.value += message.size_estimate()
        now = self.sim.now
        with self.tracer.span("net.send", kind=message.kind,
                              src=message.src, dst=message.dst) as span:
            blocked, factor = self._link(message.src, message.dst, now)
            if blocked:
                self.metrics.inc("net.send_drops", kind=message.kind,
                                 cause="partition")
                span.set_attr("dropped", "partition")
                return
            cause = self._loss_cause(message.src, message.dst, now)
            if cause is not None:
                self.metrics.inc("net.send_drops", kind=message.kind,
                                 cause=cause)
                span.set_attr("dropped", cause)
                return
            if self._corrupts(message.src, message.dst, now):
                message.corrupted = True
                self.metrics.inc("net.corrupted", kind=message.kind)
            delay = self.latency.sample(self._rng, message.src,
                                        message.dst) * factor
            span.add_cost(delay)
            parent_id = self.tracer.current_id

            def deliver() -> None:
                with self.tracer.span("net.deliver", parent=parent_id,
                                      kind=message.kind,
                                      dst=message.dst) as dspan:
                    node = self.nodes.get(message.dst)
                    if node is None or not node.online:
                        self.metrics.inc("net.send_drops", kind=message.kind,
                                         cause="offline")
                        dspan.set_attr("dropped", "offline")
                        return
                    node.handle_message(message)

            self.sim.schedule(delay, deliver)

    # -- accounted synchronous RPC ------------------------------------------------

    def rpc_issue(self, src: str, dst: str, kind: str = "rpc",
                  payload_size: int = 64) -> Reply:
        """Model one request/response round trip; return its :class:`Reply`.

        Every RNG draw (latency samples, loss causes, corruption) happens
        *now*, in issue order, and the clock does not move, so issuing a
        fan-out's branches one after another consumes the identical
        random stream a sequential loop would; the caller prices the
        overlap from the replies' latencies
        (:func:`repro.overlay.simulator.critical_path`).

        The two directions draw loss independently so the accounting
        matches the fault model: a lost *request* (or an offline or
        partitioned destination) costs one message plus a timeout —
        failed probes are not free, matching how real iterative lookups
        pay for dead fingers — while a lost *response* costs both
        messages (the request was delivered) plus the timeout.  A
        registered source that is offline sends nothing it can be
        answered on, so its RPC fails like one to an offline peer.  A
        corrupted response is delivered but useless, so it also reads as
        a failure.  Every failure is recorded in :attr:`metrics` as
        ``net.rpc_failures{kind=..., cause=..., direction=...}`` — the
        aggregate ``fault_drops`` cannot tell a lost request from a lost
        response, the labelled counters it sums can.

        On a traced network the ``net.rpc`` span closes immediately
        carrying the RTT as cost (a parallel parent span turns the sum
        into a max — see :class:`repro.obs.trace.Span`); an untraced one
        opens no span at all.  A latency model that yields a NaN,
        infinite or negative sample raises
        :class:`~repro.exceptions.SimulationError` as it is drawn, before
        any span records the RPC.

        Until a policy attaches, an untraced loss-free network settles
        with :meth:`_rpc_fair`, the general path with every policy at its
        default; :meth:`install_faults` and :meth:`install_overload` bind
        the general :meth:`_rpc_inner`.
        """
        return self._settle(src, dst, kind, payload_size)

    def _rpc_traced(self, src: str, dst: str, kind: str,
                    payload_size: int) -> Reply:
        """:meth:`_rpc_inner` inside its ``net.rpc`` span (what
        :meth:`rpc_issue` settles with on a traced network)."""
        with self.tracer.span("net.rpc", kind=kind, src=src,
                              dst=dst) as span:
            reply = self._rpc_inner(src, dst, kind, payload_size, span)
            span.set_attr("ok", reply.ok)
            span.add_cost(reply.latency)
        return reply

    def _enqueue(self, dst: str, arrival: float) -> Tuple[bool, float]:
        """Admit one request to ``dst``'s service queue at ``arrival``.

        Returns ``(accepted, queue_wait)`` where ``queue_wait`` includes
        the request's own service time.  The queue is a per-destination
        ``busy_until`` horizon on the virtual clock: backlog drains by
        the mere passage of virtual time, and depth is the backlog
        divided by the service time.  Rejection is deterministic — no
        RNG draw — so installing a service model never perturbs the
        fault layer's random streams.
        """
        service = self.service
        busy = max(self._busy_until.get(dst, arrival), arrival)
        depth = round((busy - arrival) / service.service_time)
        if depth > self.queue_peak.get(dst, -1):
            self.queue_peak[dst] = depth
            self.metrics.gauge("overload.queue_depth", dst=dst).set(depth)
        if service.queue_limit is not None and depth >= service.queue_limit:
            return (False, 0.0)
        self._busy_until[dst] = busy + service.service_time
        return (True, (busy - arrival) + service.service_time)

    def _answered_in_time(self, dst: str, out: float, rtt: float) -> bool:
        """Whether a queued answer beat the attempt timeout (an answer
        that did feeds the adaptive estimate)."""
        if rtt > self._timeout_cost(dst, out):
            return False
        self._observe_rtt(dst, rtt)
        return True

    def _rpc_fair(self, src: str, dst: str, kind: str,
                  payload_size: int) -> Reply:
        """:meth:`_rpc_inner` with every policy at its install-free
        default: every link open at factor 1.0, no loss, no corruption,
        each request served on arrival, a timeout four RTTs.  The same
        draws, counters and floats (``out`` is ``out * 1.0``, ``out +
        back`` is ``out + 0.0 + back``)."""
        out = self.latency.sample(self._rng, src, dst)
        if not 0.0 <= out < _INF:
            _reject_latency(out)
        nodes = self.nodes
        if not (nodes.get(dst, _UNKNOWN).online
                and nodes.get(src, _CLIENT).online):
            self._messages.value += 1
            self._bytes.value += payload_size
            self.metrics.inc("net.rpc_failures", kind=kind, cause="offline",
                             direction="request")
            return Reply(False, 4 * out, "offline")
        back = self.latency.sample(self._rng, dst, src)
        if not 0.0 <= back < _INF:
            _reject_latency(back)
        self._messages.value += 2
        self._bytes.value += 2 * payload_size
        # the NamedTuple's generated __new__, minus its frame
        return _new_tuple(Reply, (True, out + back, None))

    def _rpc_inner(self, src: str, dst: str, kind: str, payload_size: int,
                   span: Any = NOOP_SPAN) -> Reply:
        now = self.sim.now
        blocked, factor = self._link(src, dst, now)
        out = self.latency.sample(self._rng, src, dst) * factor
        if not 0.0 <= out < _INF:
            _reject_latency(out)
        nodes = self.nodes
        reachable = (not blocked and nodes.get(dst, _UNKNOWN).online
                     and nodes.get(src, _CLIENT).online)
        request_lost = self._loss_cause(src, dst, now) if reachable else None
        if not reachable or request_lost is not None:
            self._messages.value += 1
            self._bytes.value += payload_size
            cause = "partition" if blocked else (
                "offline" if not reachable else request_lost)
            self.metrics.inc("net.rpc_failures", kind=kind, cause=cause,
                             direction="request")
            span.set_attr("failed", f"request/{cause}")
            return Reply(False, self._timeout_cost(dst, out), cause)
        back = self.latency.sample(self._rng, dst, src) * factor
        if not 0.0 <= back < _INF:
            _reject_latency(back)
        # the request reached dst: admission to its service queue
        accepted, queue_wait = self._admit(dst, now + out)
        if not accepted:
            self.metrics.inc("overload.sheds", kind=kind, dst=dst,
                             policy="reject")
            span.set_attr("failed", "overloaded")
            # a typed rejection rides back: two messages, one round trip —
            # the cheap failure shedding buys
            self._messages.value += 2
            self._bytes.value += payload_size + 64
            return Reply(False, out + back, "overloaded")
        self._messages.value += 2
        self._bytes.value += 2 * payload_size
        response_lost = self._loss_cause(dst, src, now)
        if response_lost is not None:
            self.metrics.inc("net.rpc_failures", kind=kind,
                             cause=response_lost, direction="response")
            span.set_attr("failed", f"response/{response_lost}")
            return Reply(False, self._timeout_cost(dst, out), response_lost)
        if self._corrupts(dst, src, now):
            self.metrics.inc("net.rpc_failures", kind=kind,
                             cause="corruption", direction="response")
            span.set_attr("failed", "response/corruption")
            return Reply(False, out + back + queue_wait, "corruption")
        rtt = out + queue_wait + back
        if not self._in_time(dst, out, rtt):
            # the answer is coming, but later than the client waits: it
            # reads as a timeout while dst's service time is already
            # spent — the wasted work that feeds metastable collapse.
            self.metrics.inc("net.rpc_failures", kind=kind,
                             cause="slow", direction="response")
            span.set_attr("failed", "response/slow")
            return Reply(False, self._timeout_cost(dst, out), "slow")
        return Reply(True, rtt, None)
