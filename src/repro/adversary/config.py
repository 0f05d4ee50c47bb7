"""Configuration surface for the routing-layer adversary (PR-10 pattern).

Mirrors :class:`repro.faults.OverloadConfig` and
:class:`repro.membership.MembershipConfig`: a frozen dataclass passed to
``Fabric.create(adversary=...)`` / ``DosnConfig(adversary=...)``, where
``None`` keeps every legacy code path — and every RNG stream —
byte-identical.  Unlike those subsystems the adversary never splits an
RNG at all: every attack decision is derived by hashing
``(salt, responder, key)``, so even an *installed* adversary moves no
draw on the simulator's stream (the property tests pin this down).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Optional, Tuple

from repro.exceptions import ReproError

#: Malicious routing behaviors a compromised peer may exhibit.
#: ``misroute`` — hand the lookup to an accomplice instead of the honest
#: next hop; ``eclipse`` — claim an accomplice owns the key (forged
#: closest-node / successor claim); ``drop`` — swallow the query;
#: ``chosen_id`` — present a forged node ID adjacent to the key on
#: eclipse/misroute claims (what ID certification exists to kill).
BEHAVIORS: Tuple[str, ...] = ("misroute", "eclipse", "drop", "chosen_id")


#: Independent lookup paths a defended Kademlia / Chord lookup votes over.
DISJOINT_PATHS = 3
SUCCESSOR_REDUNDANCY = 3
#: Lost votes after which a certified-but-lying peer is quarantined.
SUSPECT_THRESHOLD = 2


@dataclass(frozen=True)
class DefenseConfig:
    """Switches the secure-lookup defense stack on; it has no knobs.

    Every routing response's node-ID claim is checked against a verified
    certificate binding ``id = H(pubkey)``; :data:`DISJOINT_PATHS` /
    :data:`SUCCESSOR_REDUNDANCY` independent lookup paths (Kademlia /
    Chord respectively) settle the answer by vote on the concurrent
    kernel; provably-lying peers (and repeatedly-outvoted ones, after
    :data:`SUSPECT_THRESHOLD` strikes) are quarantined from routing,
    feeding the ban into SWIM membership and the circuit breaker when
    those are wired.
    """


@dataclass(frozen=True)
class AdversaryConfig:
    """An active routing adversary controlling a fraction of the peers.

    Which peers are compromised is a deterministic hash threshold over
    ``(seed_salt, name)`` — stable under roster order and independent of
    every RNG stream.  ``compromised`` overrides the threshold with an
    explicit set (contract tests pick their attackers).  A compromised
    responder misbehaves on every query it is asked.  ``defense`` is the
    :class:`DefenseConfig` to fight back with; ``None`` leaves lookups
    bare — the E19 baseline.
    """

    fraction: float = 0.2
    behaviors: Tuple[str, ...] = BEHAVIORS
    defense: Optional[DefenseConfig] = None
    seed_salt: int = 0
    compromised: Optional[FrozenSet[str]] = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.fraction < 1.0:
            raise ReproError("fraction must be in [0, 1)")
        unknown = set(self.behaviors) - set(BEHAVIORS)
        if unknown:
            raise ReproError(
                f"unknown behaviors {sorted(unknown)}; pick from {BEHAVIORS}")
        if not self.behaviors:
            raise ReproError("behaviors must not be empty")
