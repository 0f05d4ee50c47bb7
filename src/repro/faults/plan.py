"""Scriptable, deterministic fault injection for :class:`SimNetwork`.

A :class:`FaultPlan` is a composition of fault primitives, each active over
a window of virtual time.  The network consults the plan on every message
and RPC; crash faults are turned into simulator events when the plan is
installed.  Everything is a pure function of ``(simulator seed, plan
contents, virtual time)``: burst schedules are derived from a seed the
plan receives at bind time, the same way the churn models derive session
schedules — so two runs with the same seed inject byte-identical faults.

Fault primitives:

================  ============================================================
:class:`LossBurst`   correlated loss — on/off bursts of elevated drop rate
                     (a Gilbert-style two-state channel, scheduled not drawn)
:class:`Partition`   peer groups that cannot exchange messages for a window
:class:`SlowLink`    latency multiplier on links touching a peer set
:class:`Crash`       peer failure at an instant, optional restart, with
                     state loss (replication has to recover the data)
:class:`Corruption`  delivered-but-garbled messages, for integrity stress
================  ============================================================
"""

from __future__ import annotations

import hashlib
import math
import random as _random
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import FrozenSet, List, Optional, Sequence, Tuple

from repro.exceptions import SimulationError


def _fault_rng(seed: int, label: str) -> _random.Random:
    digest = hashlib.sha256(f"repro/faults/{seed}/{label}".encode()).digest()
    return _random.Random(int.from_bytes(digest[:8], "big"))


def _as_peerset(peers) -> Optional[FrozenSet[str]]:
    return None if peers is None else frozenset(peers)


@dataclass
class LossBurst:
    """Bursts of elevated loss on top of the network's base loss rate.

    Burst/gap lengths are exponential with the given means; the burst
    schedule is materialized once from the plan seed (like the churn
    session schedules), so whether time ``t`` is inside a burst is a pure
    function of the seed.  ``peers`` restricts the fault to links touching
    that set; ``None`` means the whole fabric (correlated loss — every
    link degrades together, the case i.i.d. loss cannot model).
    """

    rate: float = 0.2
    mean_burst: float = 30.0
    mean_gap: float = 90.0
    start: float = 0.0
    end: float = math.inf
    peers: Optional[FrozenSet[str]] = None
    #: the materialized ``(start, end)`` burst windows, in time order
    windows: List[Tuple[float, float]] = field(default_factory=list,
                                               repr=False)
    _starts: List[float] = field(default_factory=list, repr=False)

    def __post_init__(self) -> None:
        if not 0.0 <= self.rate <= 1.0:
            raise SimulationError("burst loss rate must be in [0, 1]")
        self.peers = _as_peerset(self.peers)

    def bind(self, seed: int, index: int, horizon: float) -> None:
        rng = _fault_rng(seed, f"burst/{index}")
        self.windows, self._starts = [], []
        t = self.start + rng.expovariate(1.0 / self.mean_gap)
        limit = min(self.end, horizon)
        while t < limit:
            burst = rng.expovariate(1.0 / self.mean_burst)
            self.windows.append((t, min(t + burst, limit)))
            self._starts.append(t)
            t += burst + rng.expovariate(1.0 / self.mean_gap)

    def _touches(self, src: str, dst: str) -> bool:
        return self.peers is None or src in self.peers or dst in self.peers

    def loss_rate(self, src: str, dst: str, t: float) -> float:
        if not self._touches(src, dst):
            return 0.0
        i = bisect_right(self._starts, t) - 1
        if i >= 0 and t < self.windows[i][1]:
            return self.rate
        return 0.0


@dataclass
class Partition:
    """Cross-group links are dead during ``[start, end)``.

    ``groups`` lists disjoint peer sets; peers in different groups cannot
    exchange traffic while the partition holds.  Peers in no listed group
    form an implicit remainder group, so ``groups=[{"a", "b"}]`` isolates
    ``a`` and ``b`` from everyone else.
    """

    groups: Sequence[FrozenSet[str]] = ()
    start: float = 0.0
    end: float = math.inf

    def __post_init__(self) -> None:
        self.groups = tuple(frozenset(g) for g in self.groups)
        seen: set = set()
        for group in self.groups:
            if seen & group:
                raise SimulationError("partition groups must be disjoint")
            seen |= group

    def bind(self, seed: int, index: int, horizon: float) -> None:
        pass

    def _group_of(self, peer: str) -> int:
        for i, group in enumerate(self.groups):
            if peer in group:
                return i
        return -1  # the implicit remainder group

    def blocks(self, src: str, dst: str, t: float) -> bool:
        if not self.start <= t < self.end:
            return False
        return self._group_of(src) != self._group_of(dst)


@dataclass
class SlowLink:
    """Latency multiplier on links touching ``peers`` during the window.

    ``peers=None`` degrades every link (a fabric-wide latency spike).
    """

    factor: float = 5.0
    peers: Optional[FrozenSet[str]] = None
    start: float = 0.0
    end: float = math.inf

    def __post_init__(self) -> None:
        if self.factor < 1.0:
            raise SimulationError("slow-link factor must be >= 1")
        self.peers = _as_peerset(self.peers)

    def bind(self, seed: int, index: int, horizon: float) -> None:
        pass

    def multiplier(self, src: str, dst: str, t: float) -> float:
        if not self.start <= t < self.end:
            return 1.0
        if self.peers is not None and src not in self.peers \
                and dst not in self.peers:
            return 1.0
        return self.factor


@dataclass
class Crash:
    """Peer failure at ``at``; optional restart with state wiped.

    ``lose_state`` models a disk-less peer: its local store is cleared,
    so after restart the data must be recovered from replicas — the
    recovery path replication exists for.
    """

    peer: str
    at: float
    restart_at: Optional[float] = None
    lose_state: bool = True

    def __post_init__(self) -> None:
        if self.restart_at is not None and self.restart_at < self.at:
            raise SimulationError("restart cannot precede the crash")

    def bind(self, seed: int, index: int, horizon: float) -> None:
        pass


@dataclass
class Corruption:
    """Messages delivered but garbled with probability ``rate``.

    Corrupted async messages arrive flagged (``Message.corrupted``) so
    integrity layers can be stressed; a corrupted RPC response is useless
    to the caller and reads as a failure.
    """

    rate: float = 0.05
    peers: Optional[FrozenSet[str]] = None
    start: float = 0.0
    end: float = math.inf

    def __post_init__(self) -> None:
        if not 0.0 <= self.rate <= 1.0:
            raise SimulationError("corruption rate must be in [0, 1]")
        self.peers = _as_peerset(self.peers)

    def bind(self, seed: int, index: int, horizon: float) -> None:
        pass

    def corruption_rate(self, src: str, dst: str, t: float) -> float:
        if not self.start <= t < self.end:
            return 0.0
        if self.peers is not None and src not in self.peers \
                and dst not in self.peers:
            return 0.0
        return self.rate


class FaultPlan:
    """A composition of fault primitives attached to one network.

    Build the plan declaratively, then install it with
    :meth:`SimNetwork.install_faults`::

        plan = (FaultPlan(seed=7)
                .add(LossBurst(rate=0.2))
                .add(Partition(groups=[{"p1", "p2"}], start=100, end=300))
                .add(Crash("p9", at=150.0, restart_at=400.0)))
        network.install_faults(plan)

    Queries (:meth:`blocks`, :meth:`loss_rate`, :meth:`latency_factor`,
    :meth:`corruption_rate`) are pure functions of virtual time once the
    plan is bound; crash faults become simulator events at install time.
    """

    def __init__(self, seed: int = 0,
                 horizon: float = 7 * 24 * 3600.0) -> None:
        self.seed = seed
        self.horizon = horizon
        self.faults: List[object] = []
        self.network = None

    def add(self, fault) -> "FaultPlan":
        """Append a fault primitive; returns ``self`` for chaining."""
        if self.network is not None:
            raise SimulationError("cannot add faults after install")
        self.faults.append(fault)
        return self

    # -- install -----------------------------------------------------------------

    def bind(self, network) -> None:
        """Finalize schedules and register crash events (network calls this)."""
        if self.network is not None:
            raise SimulationError("fault plan already installed")
        self.network = network
        for index, fault in enumerate(self.faults):
            fault.bind(self.seed, index, self.horizon)
            if isinstance(fault, Crash):
                self._schedule_crash(fault)

    def _schedule_crash(self, crash: Crash) -> None:
        sim = self.network.sim

        def down() -> None:
            node = self.network.nodes.get(crash.peer)
            if node is not None:
                node.crash(lose_state=crash.lose_state)

        def up() -> None:
            node = self.network.nodes.get(crash.peer)
            if node is not None:
                node.go_online()

        sim.schedule_at(crash.at, down)
        if crash.restart_at is not None:
            sim.schedule_at(crash.restart_at, up)

    # -- per-message queries -------------------------------------------------------

    def blocks(self, src: str, dst: str, t: float) -> bool:
        """Whether a partition kills the ``src -> dst`` link at ``t``."""
        return any(f.blocks(src, dst, t) for f in self.faults
                   if isinstance(f, Partition))

    def loss_rate(self, src: str, dst: str, t: float) -> float:
        """Combined fault-added loss probability on the link at ``t``."""
        keep = 1.0
        for fault in self.faults:
            if isinstance(fault, LossBurst):
                keep *= 1.0 - fault.loss_rate(src, dst, t)
        return 1.0 - keep

    def latency_factor(self, src: str, dst: str, t: float) -> float:
        """Combined latency multiplier on the link at ``t``."""
        factor = 1.0
        for fault in self.faults:
            if isinstance(fault, SlowLink):
                factor *= fault.multiplier(src, dst, t)
        return factor

    def corruption_rate(self, src: str, dst: str, t: float) -> float:
        """Combined corruption probability on the link at ``t``."""
        keep = 1.0
        for fault in self.faults:
            if isinstance(fault, Corruption):
                keep *= 1.0 - fault.corruption_rate(src, dst, t)
        return 1.0 - keep

    def holder_faults(self, holder: str, t: float):
        """Byzantine holder faults driving ``holder`` at ``t`` (plan order).

        Link faults attack the wire; these attack the serving peer itself
        (:mod:`repro.faults.byzantine`).  The replicated store consults
        this at serve time to decide whether a holder lies.
        """
        from repro.faults.byzantine import active_holder_faults
        return active_holder_faults(self.faults, holder, t)
