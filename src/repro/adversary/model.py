"""The active routing adversary: who is compromised, and what they answer.

The paper's Section VI threat: a malicious *participant* inside the
overlay.  :class:`AdversaryModel` attaches to a
:class:`repro.fabric.Fabric` (``fabric.adversary``) and interposes on the
answers the overlays consume from queried peers:

* **misroute** — a compromised Chord responder hands the lookup to an
  accomplice instead of its honest closest-preceding finger;
* **eclipse** — the responder claims an accomplice is the key's owner
  (Chord) or returns a closest-node set made of accomplices (Kademlia);
* **drop** — the responder swallows the query (the transport already
  succeeded; the answer never comes);
* **chosen_id** — eclipse/misroute claims carry a forged node ID placed
  adjacent to the key, the attack node-ID certification exists to kill.

Determinism contract (stricter than the PR 5/7/9 subsystems): *every*
adversary decision — who is compromised, whether a query is attacked,
which behavior, which accomplice — is derived by hashing, never drawn
from an RNG.  Installing an adversary therefore moves **zero** draws on
any stream, bare and defended cells of one experiment face the *same*
attack pattern, and ``adversary=None`` is trivially byte-identical.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.adversary.config import AdversaryConfig
from repro.adversary.defense import Quarantine
from repro.crypto.node_cert import IdCertifier
from repro.exceptions import SimulationError

__all__ = ["AdversaryModel", "ChordAnswer", "KadAnswer"]

#: id-space width per overlay (matches chord.M_BITS / kademlia.ID_BITS)
_SPACE_BITS = {"chord": 32, "kad": 64}

#: the overlays' position-derivation prefixes (chord_id / kad_id) — the
#: certifier signs these derivations so certified ids equal ring
#: positions (see :mod:`repro.crypto.node_cert`)
_ID_PREFIX = {"chord": b"repro/chord/", "kad": b"repro/kad/"}


def _overlay_id(space: str, name: str) -> int:
    """The overlay position of ``name`` (same hash the overlays use)."""
    digest = hashlib.sha256(_ID_PREFIX[space] + name.encode()).digest()
    return int.from_bytes(digest[:8], "big") % (1 << _SPACE_BITS[space])

#: A routing claim: ``(node name, claimed certified id)``.
Claim = Tuple[str, int]


@dataclass(frozen=True)
class ChordAnswer:
    """A compromised Chord responder's (forged) answer."""

    drop: bool = False
    final: Optional[Claim] = None      # "this node owns the key"
    next_hop: Optional[Claim] = None   # "route through this node"

    @property
    def claims(self) -> Tuple[Claim, ...]:
        """The node-id claims the answer carries (as on ``KadAnswer``)."""
        claim = self.final or self.next_hop
        return () if claim is None else (claim,)


@dataclass(frozen=True)
class KadAnswer:
    """A compromised Kademlia responder's (forged) answer."""

    drop: bool = False
    claims: Tuple[Claim, ...] = ()     # forged closest-node set


def _unit(salt: int, *parts: str) -> float:
    """A deterministic value in [0, 1) from hashed parts (no RNG)."""
    data = "/".join((str(salt),) + parts).encode()
    digest = hashlib.sha256(b"repro/adversary/" + data).digest()
    return int.from_bytes(digest[:8], "big") / float(1 << 64)


class AdversaryModel:
    """Adversary state for one fabric: rosters, certifiers, quarantine."""

    def __init__(self, fabric, config: AdversaryConfig) -> None:
        self.fabric = fabric
        self.config = config
        self.metrics = fabric.metrics
        #: per-overlay certificate registries (independent id spaces)
        self.certifiers: Dict[str, IdCertifier] = {}
        #: per-overlay enrolled peers, in enrollment order
        self.rosters: Dict[str, List[str]] = {}
        self._compromised: Dict[str, bool] = {}
        self._accomplices: Dict[str, List[str]] = {}
        self.quarantine: Optional[Quarantine] = None
        if config.defense is not None:
            self.quarantine = Quarantine(fabric)
        fabric.attach_adversary(self)

    # -- roster & compromise ---------------------------------------------------

    def enroll(self, name: str, space: str) -> None:
        """Register an overlay peer (called by the overlays' add_node)."""
        if space not in _SPACE_BITS:
            raise SimulationError(f"unknown overlay id space {space!r}")
        roster = self.rosters.setdefault(space, [])
        if name not in roster:
            roster.append(name)
            self._accomplices.pop(space, None)

    def compromised(self, name: str) -> bool:
        """Whether ``name`` is adversary-controlled (hash threshold)."""
        cached = self._compromised.get(name)
        if cached is None:
            if self.config.compromised is not None:
                cached = name in self.config.compromised
            else:
                cached = _unit(self.config.seed_salt, "compromise",
                               name) < self.config.fraction
            self._compromised[name] = cached
        return cached

    def accomplices(self, space: str) -> List[str]:
        """Compromised peers of one overlay, sorted (stable targets)."""
        cached = self._accomplices.get(space)
        if cached is None:
            cached = sorted(n for n in self.rosters.get(space, ())
                            if self.compromised(n))
            self._accomplices[space] = cached
        return cached

    # -- certificates ----------------------------------------------------------

    def certifier(self, space: str) -> IdCertifier:
        certifier = self.certifiers.get(space)
        if certifier is None:
            prefix = _ID_PREFIX[space]
            certifier = IdCertifier(
                bits=_SPACE_BITS[space],
                material_of=lambda name: prefix + name.encode())
            self.certifiers[space] = certifier
        return certifier

    def certified_id(self, space: str, name: str) -> int:
        """The certified id a peer presents with an honest claim."""
        return self.certifier(space).certified_id(name)

    def check_claim(self, space: str, name: str, claimed_id: int) -> bool:
        """Verify one routing response's node-id claim."""
        return self.certifier(space).check(name, claimed_id)

    # -- attack decisions (all hash-derived) -----------------------------------

    def _behavior(self, responder: str, key: str,
                  menu: Tuple[str, ...]) -> Optional[str]:
        """Which behavior (if any) this responder shows for this key."""
        if not self.compromised(responder):
            return None
        active = [b for b in menu if b in self.config.behaviors]
        if not active:
            return None
        index = int(_unit(self.config.seed_salt, "behavior", responder, key)
                    * len(active))
        return active[index]

    def _chooses_id(self, responder: str, key: str) -> bool:
        if "chosen_id" not in self.config.behaviors:
            return False
        return _unit(self.config.seed_salt, "chosen", responder, key) < 0.5

    def _forged_id(self, space: str, key: str, rank: int = 0) -> int:
        """A chosen id placed right at the key's position (rank'th best).

        Chord closeness is clockwise (smallest id >= key wins), Kademlia
        closeness is XOR — either way a bare client ranks the forged id
        ahead of every honest node.
        """
        target = _overlay_id(space, key)
        if space == "chord":
            return (target + rank) % (1 << _SPACE_BITS[space])
        return target ^ rank

    def _pick_accomplice(self, space: str, responder: str,
                         key: str) -> Optional[str]:
        pool = [a for a in self.accomplices(space) if a != responder]
        if not pool:
            return None
        index = int(_unit(self.config.seed_salt, "accomplice",
                          responder, key) * len(pool))
        return pool[index]

    def withholds(self, responder: str, key: str) -> bool:
        """Whether a compromised holder denies having the value."""
        return self._behavior(responder, key,
                              ("misroute", "eclipse", "drop")) is not None

    # -- per-overlay forged answers --------------------------------------------

    def chord_answer(self, responder: str, key: str
                     ) -> Optional[ChordAnswer]:
        """What a compromised Chord responder answers (None = honest)."""
        behavior = self._behavior(responder, key,
                                  ("misroute", "eclipse", "drop"))
        if behavior is None:
            return None
        if behavior == "drop":
            self.metrics.inc("adversary.drops", overlay="chord")
            return ChordAnswer(drop=True)
        accomplice = self._pick_accomplice("chord", responder, key)
        if behavior == "misroute" and accomplice is None:
            behavior = "eclipse"    # lone attacker: claim the key itself
        target = accomplice if behavior == "misroute" \
            else (accomplice or responder)
        if self._chooses_id(responder, key):
            claimed = self._forged_id("chord", key)
        else:
            claimed = self.certified_id("chord", target)
        if behavior == "misroute":
            self.metrics.inc("adversary.misroutes", overlay="chord")
            return ChordAnswer(next_hop=(target, claimed))
        self.metrics.inc("adversary.forged_routes", overlay="chord")
        return ChordAnswer(final=(target, claimed))

    def kad_answer(self, responder: str, key: str
                   ) -> Optional[KadAnswer]:
        """What a compromised Kademlia responder answers (None = honest).

        Misroute and eclipse collapse to the same Kademlia attack — a
        forged closest-node set of accomplices — because XOR routing has
        no next-hop pointer distinct from the candidate set.
        """
        behavior = self._behavior(responder, key,
                                  ("misroute", "eclipse", "drop"))
        if behavior is None:
            return None
        if behavior == "drop":
            self.metrics.inc("adversary.drops", overlay="kad")
            return KadAnswer(drop=True)
        pool = [a for a in self.accomplices("kad") if a != responder] \
            or [responder]
        chosen = self._chooses_id(responder, key)
        claims = []
        for rank, name in enumerate(pool[:8]):
            claimed = self._forged_id("kad", key, rank) if chosen \
                else self.certified_id("kad", name)
            claims.append((name, claimed))
        self.metrics.inc("adversary.forged_routes", overlay="kad")
        return KadAnswer(claims=tuple(claims))

    # -- quarantine feed -------------------------------------------------------

    def flag_cert_liar(self, peer: str, overlay: str) -> None:
        """A provably forged claim (failed certificate check; only a
        defended lookup checks, so the quarantine exists)."""
        self.metrics.inc("lookup.poisoned", overlay=overlay, cause="cert")
        self.quarantine.flag_provable(peer, reason="cert")

    def flag_outvoted(self, peer: str, overlay: str) -> None:
        """A certified-but-lying resolver lost a disjoint-path vote."""
        self.quarantine.flag_suspect(peer)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        banned = len(self.quarantine.banned) if self.quarantine else 0
        return (f"AdversaryModel(fraction={self.config.fraction}, "
                f"defended={self.config.defense is not None}, "
                f"quarantined={banned})")
