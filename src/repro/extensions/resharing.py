"""The data-resharing problem (Section VI open problem).

"As long as the friends of a user are trustable and do not reshare the data
which the user shared with them, no problem will be faced.  However, there
is no control if they want to reshare the user's data with others ...  The
main problem is how it would be possible to prevent a user's friends from
re-sharing the user's data."

The paper states the problem is unsolved — and it is: once a friend can
*read* content, they can copy it.  This module makes the claim executable:

* :class:`ResharingSimulation` spreads a secret through a social graph
  where each reader reshares with independent probability, proving that
  *any* nonzero resharing probability leaks beyond the intended audience;
* per-recipient **watermarking** (the only deployed mitigation: deterrence
  by traitor-tracing, not prevention) is implemented so experiments can
  show what it does and does not give you — the leaker is identifiable,
  the leak itself is not prevented.
"""

from __future__ import annotations

import random as _random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

import networkx as nx

from repro.crypto.hashing import hmac_sha256
from repro.exceptions import ReproError


def watermark(content: bytes, owner_key: bytes, recipient: str) -> bytes:
    """Embed a per-recipient tag: ``content || tag`` (keyed, unforgeable).

    Real systems hide the mark steganographically; for the simulation the
    relevant property is only that marks are recipient-specific and keyed.
    """
    tag = hmac_sha256(owner_key, content + recipient.encode())[:16]
    return content + b"|wm|" + tag


def trace_leak(leaked: bytes, owner_key: bytes,
               recipients: Sequence[str]) -> Optional[str]:
    """Identify which recipient's copy was leaked (traitor tracing)."""
    if b"|wm|" not in leaked:
        return None
    content, _, tag = leaked.rpartition(b"|wm|")
    for recipient in recipients:
        expected = hmac_sha256(owner_key, content + recipient.encode())[:16]
        if expected == tag:
            return recipient
    return None


@dataclass
class ResharingSimulation:
    """Stochastic resharing spread through a social graph."""

    graph: nx.Graph
    reshare_probability: float
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 <= self.reshare_probability <= 1.0:
            raise ReproError("reshare probability must be in [0, 1]")

    def run(self, owner: str, audience: Sequence[str],
            rounds: int = 6) -> Dict[str, object]:
        """Share with ``audience``; let readers reshare for ``rounds``.

        Every holder reshares to each of their friends independently with
        ``reshare_probability`` per round.  Returns spread statistics,
        including how far beyond the intended audience the content
        travelled — the quantity no access-control scheme bounds.
        """
        if owner not in self.graph:
            raise ReproError(f"{owner!r} not in the graph")
        rng = _random.Random(self.seed)
        intended = set(audience) | {owner}
        holders: Set[str] = set(intended)
        first_seen: Dict[str, int] = {user: 0 for user in holders}
        for round_number in range(1, rounds + 1):
            new_holders: Set[str] = set()
            # sorted: set order follows PYTHONHASHSEED, and the order the
            # holders draw in decides who reshares to whom
            for holder in sorted(holders):
                for friend in self.graph.neighbors(holder):
                    friend = str(friend)
                    if friend in holders or friend in new_holders:
                        continue
                    if rng.random() < self.reshare_probability:
                        new_holders.add(friend)
                        first_seen[friend] = round_number
            if not new_holders:
                break
            holders |= new_holders
        unintended = holders - intended
        return {
            "holders": holders,
            "unintended": unintended,
            "unintended_fraction": (len(unintended)
                                    / max(1, self.graph.number_of_nodes()
                                          - len(intended))),
            "rounds_run": max(first_seen.values()),
            "first_seen": first_seen,
        }

    def run_with_watermarks(self, owner: str, audience: Sequence[str],
                            content: bytes, owner_key: bytes,
                            rounds: int = 6) -> Dict[str, object]:
        """Same spread, but each audience copy is watermarked.

        When the content escapes, the *first* resharer is traceable from
        any leaked copy — deterrence, not prevention, which is the honest
        summary of the state of the art the paper calls for improving.
        """
        result = self.run(owner, audience, rounds)
        rng = _random.Random(self.seed + 1)
        copies = {user: watermark(content, owner_key, user)
                  for user in audience}
        leak_origins: Dict[str, str] = {}
        for user in sorted(result["unintended"]):
            # whoever reshared to this user forwarded some audience copy;
            # approximate by nearest audience member in the graph
            reachable = [a for a in audience
                         if nx.has_path(self.graph, a, user)]
            if reachable:
                origin = min(reachable, key=lambda a:
                             nx.shortest_path_length(self.graph, a, user))
                leak_origins[user] = origin
        traced = {user: trace_leak(copies[origin], owner_key, audience)
                  for user, origin in leak_origins.items()}
        result["traceable"] = all(v is not None for v in traced.values())
        result["traced_origins"] = traced
        return result
