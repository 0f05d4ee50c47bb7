"""Deterministic discrete-event simulator for single-host peer experiments.

The paper's DOSNs (PeerSoN, Safebook, Cachet, Supernova, Cuckoo, ...) were
deployed over real networks; per the calibration note ("simulate peers on
one host") this module provides the substitute substrate: a classic
event-queue simulator with virtual time, so thousands of peers run in one
process with reproducible results.

Design points:

* all randomness comes from the simulator's seeded :class:`random.Random`
  (or RNGs split from it via :meth:`Simulator.split_rng`), so every
  experiment is a pure function of its seed;
* events at equal timestamps fire in schedule order (a monotone sequence
  number breaks ties), which removes heap nondeterminism;
* :class:`Event` handles support cancellation (needed by churn timers).

**The concurrent virtual-time kernel.**  The accounted-RPC shortcut
(:meth:`repro.overlay.network.SimNetwork.rpc`) returns an RTT without
advancing the clock, so a fan-out — quorum probes, hedged replica
fetches, SWIM ping-req chains, batched feed fetches — needs its own
account of the overlap a real client gets.  An issued operation is a
:class:`SimFuture`: it settles immediately (all RNG draws happen at
issue time, in issue order, so the synchronous wrappers keep
byte-identical random streams) but carries a virtual *completion time*.
The combinators :func:`gather` and :func:`quorum_of` then reduce a
fan-out to its critical path: overlapped operations cost
the **max** (or the ``n``-th completion, for quorums) of their latencies
instead of the sum, and :func:`hedge_of` prices a staggered hedge race
at its winner's completion.  Settle order is fixed by ``(completion
time, issue sequence)``, so two runs at one seed settle identically.
"""

from __future__ import annotations

import heapq
import math
import random as _random
from dataclasses import dataclass, field
from typing import (Any, Callable, Iterable, List, Optional, Sequence,
                    Tuple)

from repro.exceptions import SimulationError


@dataclass(order=True)
class Event:
    """A scheduled callback; comparable by (time, sequence)."""

    time: float
    sequence: int
    callback: Callable[[], None] = field(compare=False)
    cancelled: bool = field(default=False, compare=False)

    def cancel(self) -> None:
        """Prevent the callback from firing (O(1); lazily removed)."""
        self.cancelled = True


class Simulator:
    """A virtual clock plus an event queue."""

    def __init__(self, seed: int = 0) -> None:
        self.now: float = 0.0
        self.rng = _random.Random(seed)
        self._queue: List[Event] = []
        self._sequence = 0
        self._future_sequence = 0
        self.events_processed = 0

    def schedule(self, delay: float, callback: Callable[[], None]) -> Event:
        """Schedule ``callback`` to fire ``delay`` time units from now."""
        if not math.isfinite(delay):
            # NaN compares False against everything, so it would slip
            # past the negativity check and poison the heap invariant
            # (heap order is undefined once one key is incomparable).
            raise SimulationError(
                f"event delay must be finite (got {delay})")
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past ({delay})")
        event = Event(time=self.now + delay, sequence=self._sequence,
                      callback=callback)
        self._sequence += 1
        heapq.heappush(self._queue, event)
        return event

    def schedule_at(self, when: float, callback: Callable[[], None]) -> Event:
        """Schedule at an absolute virtual time."""
        return self.schedule(when - self.now, callback)

    def run(self, until: Optional[float] = None,
            max_events: Optional[int] = None) -> int:
        """Process events until the queue drains, ``until`` passes, or
        ``max_events`` fire.  Returns the number of events processed."""
        processed = 0
        while self._queue:
            if max_events is not None and processed >= max_events:
                break
            event = self._queue[0]
            if until is not None and event.time > until:
                break
            heapq.heappop(self._queue)
            if event.cancelled:
                continue
            if event.time < self.now:  # pragma: no cover - heap invariant
                raise SimulationError("event queue went backwards")
            self.now = event.time
            event.callback()
            processed += 1
            self.events_processed += 1
        if until is not None and self.now < until:
            self.now = until
        return processed

    def split_rng(self, label: str) -> _random.Random:
        """An independent deterministic RNG derived from the seed + label.

        Use one per subsystem so adding randomness in one place does not
        perturb another's stream (the classic simulation-reproducibility
        trap).
        """
        return _random.Random(f"{self.rng.random()}/{label}")

    @property
    def pending(self) -> int:
        """Number of not-yet-fired (possibly cancelled) events."""
        return len(self._queue)

    def future(self, latency: float, value: Any = None,
               ok: bool = True,
               cause: Optional[str] = None) -> "SimFuture":
        """Issue a :class:`SimFuture` completing ``latency`` from now."""
        return SimFuture(self, latency, value=value, ok=ok, cause=cause)


class SimFuture:
    """The completion token of one issued operation.

    Because accounted RPCs resolve their outcome at issue time (every
    RNG draw happens immediately, in issue order), a future is *settled*
    the moment it is created — what it defers is the **latency
    accounting**: ``completion = issued_at + latency`` on the virtual
    clock is when a real client would see the response.  The combinators
    below reduce sets of futures to deterministic critical paths.

    ``seq`` is a simulator-wide monotone issue sequence; all settle
    ordering ties break on it, never on object identity.
    """

    __slots__ = ("sim", "issued_at", "seq", "latency", "value", "ok",
                 "cause", "cancelled")

    def __init__(self, sim: Simulator, latency: float, value: Any = None,
                 ok: bool = True, cause: Optional[str] = None) -> None:
        if not math.isfinite(latency) or latency < 0:
            raise SimulationError(
                f"future latency must be finite and >= 0 (got {latency})")
        self.sim = sim
        self.issued_at = sim.now
        self.seq = sim._future_sequence
        sim._future_sequence += 1
        self.latency = latency
        #: the operation's result (e.g. the ``(ok, rtt)`` pair of an RPC)
        self.value = value
        #: whether the operation succeeded (the default quorum predicate)
        self.ok = ok
        #: failure cause tag ("overloaded", "slow", a loss cause, ...) —
        #: ``None`` on success; set by the network so callers can treat
        #: a shed differently from a timeout without re-deriving it.
        self.cause = cause
        #: set by a combinator when a winner made this branch moot; the
        #: operation was still *issued* (its messages are already paid
        #: for), but nothing waits on it.
        self.cancelled = False

    @property
    def completion(self) -> float:
        """Absolute virtual time at which this operation completes."""
        return self.issued_at + self.latency

    def cancel(self) -> None:
        """Mark the branch as abandoned by its consumer (bookkeeping)."""
        self.cancelled = True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"SimFuture(seq={self.seq}, ok={self.ok}, "
                f"latency={self.latency:.4f})")


@dataclass
class FanoutResult:
    """What a combinator settled: winners, order, and the elapsed cost.

    ``elapsed`` is the critical path to the settle point;
    ``max_latency`` is what waiting for every branch would have cost.
    """

    settled: List[SimFuture]        #: (completion, seq) order
    winners: List[SimFuture]        #: first ``n`` satisfying, settle order
    met: bool                       #: whether the quorum was reached
    elapsed: float                  #: critical path to the settle point
    max_latency: float              #: waiting for *every* branch


def quorum_of(n: int, futures: Sequence[SimFuture],
              predicate: Optional[Callable[[SimFuture], bool]] = None
              ) -> FanoutResult:
    """Settle a fan-out when ``n`` satisfying branches have completed.

    ``predicate`` marks the satisfying branches (default:
    :attr:`SimFuture.ok`).  Settle order is ``(completion, seq)`` —
    deterministic across runs at one seed.  ``elapsed`` is the ``n``-th
    satisfying completion relative to the earliest issue (the client
    returns as soon as the quorum is in); an unmet quorum waits for
    every branch (``max_latency``).  Branches that complete after the
    settle point are flagged ``cancelled``.
    """
    futures = list(futures)
    if predicate is None:
        predicate = lambda future: future.ok  # noqa: E731
    if not futures:
        return FanoutResult(settled=[], winners=[], met=n <= 0,
                            elapsed=0.0, max_latency=0.0)
    epoch = min(future.issued_at for future in futures)
    settled = sorted(futures, key=lambda f: (f.completion, f.seq))
    max_latency = settled[-1].completion - epoch
    winners: List[SimFuture] = []
    for future in settled:
        if len(winners) < n and predicate(future):
            winners.append(future)
    met = len(winners) >= n
    if n <= 0:
        # Nothing to wait for: the quorum was satisfied before any of
        # these branches was needed (e.g. local write acks covered W).
        elapsed = 0.0
    elif met:
        settle_at = winners[-1].completion
        for future in settled:
            if future.completion > settle_at or (
                    future.completion == settle_at
                    and future.seq > winners[-1].seq):
                future.cancel()
        elapsed = settle_at - epoch
    else:
        elapsed = max_latency
    return FanoutResult(settled=settled, winners=winners, met=met,
                        elapsed=elapsed, max_latency=max_latency)


def gather(futures: Sequence[SimFuture]) -> FanoutResult:
    """Wait for *every* branch: elapsed is the slowest one."""
    futures = list(futures)
    return quorum_of(len(futures), futures, predicate=lambda f: True)


def hedge_of(candidates: Iterable[Any], hedge_delay: float,
             issue: Callable[[Any, float],
                             Optional[Tuple[Optional[SimFuture], bool]]]
             ) -> Tuple[Optional[Any], float, int]:
    """Race staggered hedges; the earliest accepted response wins.

    Candidate ``i`` takes launch slot ``i`` at offset ``i * hedge_delay``,
    and launching stops once an accepted response has completed by the
    next launch.  ``issue(candidate, offset)`` puts the request on the
    wire and returns ``(future, accepted)`` — ``accepted`` is the
    caller's win condition (the RPC landed; its bytes verified) —
    ``(None, False)`` when the slot passes with nothing launched, or
    ``None`` to stop launching (a spent deadline).  The winner is the
    accepted branch with the earliest ``(completion offset, seq)``; every
    other launched branch is cancelled.  Returns ``(winner, elapsed,
    hedges)``: the winning candidate and its completion offset — or
    ``None`` and the last completion offset when no response was
    accepted — and the number of slots taken after the first.
    """
    launched = []  # (completion offset, future), launch order
    best = None  # (completion offset, candidate, future) of the leader
    slots = 0
    for candidate in candidates:
        offset = slots * hedge_delay
        if best is not None and best[0] <= offset:
            break  # an earlier request won before this hedge fires
        issued = issue(candidate, offset)
        if issued is None:
            break
        slots += 1
        future, accepted = issued
        if future is None:
            continue
        done = offset + future.latency
        launched.append((done, future))
        # seq grows with launch order, so a tie keeps the earlier launch
        if accepted and (best is None or done < best[0]):
            best = (done, candidate, future)
    hedges = max(0, slots - 1)
    if best is None:
        return None, max((done for done, _ in launched), default=0.0), hedges
    elapsed, winner, winning = best
    for _done, future in launched:
        if future is not winning:
            future.cancel()
    return winner, elapsed, hedges


@dataclass
class UniformLatency:
    """Link latency drawn uniformly from ``[low, high]`` per message."""

    low: float = 0.010
    high: float = 0.100

    def sample(self, rng: _random.Random, src: Any, dst: Any) -> float:
        """A latency sample for one message from ``src`` to ``dst``."""
        # rng.uniform(low, high)'s own formula: the same draw, one call less
        return self.low + (self.high - self.low) * rng.random()


@dataclass
class FixedLatency:
    """Constant link latency (useful for hop-count-only experiments)."""

    value: float = 0.050

    def sample(self, rng: _random.Random, src: Any, dst: Any) -> float:
        """Always :attr:`value`."""
        return self.value
