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
  number breaks ties), which removes heap nondeterminism.

**The concurrent virtual-time kernel.**  The accounted-RPC shortcut
(:meth:`repro.overlay.network.SimNetwork.rpc_issue`) settles an RPC the
moment it is issued — every RNG draw happens then, in issue order — and
returns its outcome as a :class:`Reply` without advancing the clock.  So
the clock is frozen during an operation, and every branch of a fan-out
(quorum probes, hedged replica fetches, SWIM ping-req chains, batched
feed fetches) leaves at the same instant: what the fan-out costs is a
function of its branches' latencies alone.  :func:`critical_path` is
that function — the ``n``-th fastest satisfying branch instead of the
sum — and :func:`hedge_of` prices a staggered hedge race
(:meth:`repro.faults.ReliableChannel.hedged`) at its winner's answer.
"""

from __future__ import annotations

import heapq
import math
import random as _random
from dataclasses import dataclass, field
from typing import (Any, Callable, Iterable, List, NamedTuple, Optional,
                    Sequence, Tuple)

from repro.exceptions import SimulationError


@dataclass(order=True)
class Event:
    """A scheduled callback; comparable by (time, sequence)."""

    time: float
    sequence: int
    callback: Callable[[], None] = field(compare=False)


class Simulator:
    """A virtual clock plus an event queue."""

    def __init__(self, seed: int = 0) -> None:
        self.now: float = 0.0
        self.rng = _random.Random(seed)
        self._queue: List[Event] = []
        self._sequence = 0

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
            if event.time < self.now:  # pragma: no cover - heap invariant
                raise SimulationError("event queue went backwards")
            self.now = event.time
            event.callback()
            processed += 1
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


class Reply(NamedTuple):
    """One RPC's outcome, settled the moment it is issued.

    ``latency`` is virtual seconds from issue to the answer (or to the
    caller giving up); ``cause`` tags a failure (``"overloaded"`` for a
    shed, ``"slow"``, a loss cause, ...) and is ``None`` on success, so a
    caller can treat a shed differently from a timeout without
    re-deriving it.
    """

    ok: bool
    latency: float
    cause: Optional[str]


def critical_path(n: int, satisfying: Sequence[float],
                  branches: Sequence[float]) -> float:
    """What a fan-out that waits for ``n`` satisfying branches costs.

    ``branches`` are the latencies of every branch issued and
    ``satisfying`` those of the branches that count toward ``n``.  The
    clock is frozen during an operation, so every branch leaves at the
    same instant: the caller returns at the ``n``-th fastest satisfying
    branch, waits out the slowest branch when fewer than ``n`` satisfy,
    and pays nothing when ``n <= 0`` (the quorum was met before any
    branch was needed, e.g. by local write acks).
    """
    if n <= 0:
        return 0.0
    if len(satisfying) >= n:
        return sorted(satisfying)[n - 1]
    return max(branches, default=0.0)


def hedge_of(candidates: Iterable[Any], hedge_delay: float,
             issue: Callable[[Any, float],
                             Optional[Tuple[Optional[float], bool]]]
             ) -> Tuple[Optional[Any], float, int]:
    """Race staggered hedges; the earliest accepted response wins.

    Candidate ``i`` takes launch slot ``i`` at offset ``i * hedge_delay``,
    and launching stops once an accepted response has completed by the
    next launch.  ``issue(candidate, offset)`` puts the request on the
    wire and returns ``(latency, accepted)`` — ``accepted`` is the
    caller's win condition (the RPC landed; its bytes verified) —
    ``(None, False)`` when the slot passes with nothing launched, or
    ``None`` to stop launching (a spent deadline).  The winner is the
    accepted branch with the earliest completion offset, the earlier
    launch on a tie.  Returns ``(winner, elapsed, hedges)``: the winning
    candidate and its completion offset — or ``None`` and the last
    completion offset when no response was accepted — and the number of
    slots taken after the first.
    """
    last = 0.0  # the latest completion offset of any launched branch
    best = None  # (completion offset, candidate) of the leader
    slots = 0
    for candidate in candidates:
        offset = slots * hedge_delay
        if best is not None and best[0] <= offset:
            break  # an earlier request won before this hedge fires
        issued = issue(candidate, offset)
        if issued is None:
            break
        slots += 1
        latency, accepted = issued
        if latency is None:
            continue
        done = offset + latency
        last = max(last, done)
        if accepted and (best is None or done < best[0]):
            best = (done, candidate)
    hedges = max(0, slots - 1)
    if best is None:
        return None, last, hedges
    return best[1], best[0], hedges


#: :class:`UniformLatency` bounds, virtual seconds
LATENCY_LOW = 0.010
LATENCY_HIGH = 0.100


@dataclass
class UniformLatency:
    """Link latency drawn uniformly from ``[LATENCY_LOW, LATENCY_HIGH]``
    per message."""

    def sample(self, rng: _random.Random, src: Any, dst: Any) -> float:
        """A latency sample for one message from ``src`` to ``dst``."""
        # rng.uniform(low, high)'s own formula: the same draw, one call less
        return LATENCY_LOW + (LATENCY_HIGH - LATENCY_LOW) * rng.random()


@dataclass
class FixedLatency:
    """Constant link latency (useful for hop-count-only experiments)."""

    value: float = 0.050

    def sample(self, rng: _random.Random, src: Any, dst: Any) -> float:
        """Always :attr:`value`."""
        return self.value
