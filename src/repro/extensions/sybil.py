"""Sybil attacks on the trust/reputation layer (Section VI concern).

"In a sybil attack, the reputation system of a network will be subverted by
[an] attacker who makes (usually multiple) pseudonymous entities."

Implemented:

* :func:`inject_sybils` — grow a sybil region: ``count`` fake identities
  densely connected to each other, attached to the honest region through a
  limited number of *attack edges* (the quantity that social-graph sybil
  defences bound);
* :class:`SybilAttack` — measures what the sybils achieve against the
  trust-chain ranking of :mod:`repro.search.trust`: how highly a sybil can
  rank in an honest user's friend search;
* :func:`degree_cut_detection` — the classic structural defence intuition
  (SybilGuard family): random walks starting at honest nodes rarely cross
  the thin attack-edge cut, so sybils get low acceptance rates.  The walk
  engine itself lives in :mod:`repro.adversary.walks` (shared with the
  routing-adversary subsystem); this module keeps the E9-facing metric.

Experiment E9 shows the paper's implied point: popularity-style signals are
forgeable by sybils, trust chains bound the damage by the attack-edge cut,
and random-walk defences detect the region.
"""

from __future__ import annotations

import random as _random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

import networkx as nx

from repro.adversary.walks import random_walk_landings, region_mass
from repro.exceptions import ReproError
from repro.search.trust import best_trust_chain


def inject_sybils(graph: nx.Graph, count: int, attack_edges: int,
                  seed: int = 0, sybil_trust: float = 0.9,
                  victim_trust: float = 0.6) -> Tuple[nx.Graph, List[str]]:
    """Attach a dense sybil region to a copy of ``graph``.

    Sybils trust each other fully (they are one attacker); ``attack_edges``
    honest users are tricked into befriending one sybil each with edge
    trust ``victim_trust``.  Returns ``(augmented graph, sybil names)``.
    """
    if count < 1 or attack_edges < 0:
        raise ReproError("need count >= 1 and attack_edges >= 0")
    rng = _random.Random(seed)
    work = graph.copy()
    sybils = [f"sybil{i}" for i in range(count)]
    for name in sybils:
        work.add_node(name)
    # dense internal structure: ring + chords, all high trust
    for i, name in enumerate(sybils):
        work.add_edge(name, sybils[(i + 1) % count], trust=sybil_trust)
        work.add_edge(name, sybils[(i + count // 2) % count],
                      trust=sybil_trust)
    honest = sorted(str(n) for n in graph.nodes)
    victims = rng.sample(honest, min(attack_edges, len(honest)))
    for victim in victims:
        work.add_edge(victim, rng.choice(sybils), trust=victim_trust)
    return work, sybils


@dataclass
class SybilAttack:
    """Measure a sybil region's success against trust-ranked search."""

    graph: nx.Graph
    sybils: List[str]

    def best_sybil_trust(self, searcher: str,
                         max_depth: int = 4) -> float:
        """The highest derived trust any sybil achieves from ``searcher``."""
        best = 0.0
        for sybil in self.sybils:
            trust, _ = best_trust_chain(self.graph, searcher, sybil,
                                        max_depth)
            best = max(best, trust)
        return best


def degree_cut_detection(graph: nx.Graph, sybils: Sequence[str],
                         walk_length: int = 10, walks_per_node: int = 20,
                         seed: int = 0) -> Dict[str, float]:
    """Random-walk acceptance rates (the SybilGuard intuition).

    From a fixed honest verifier, short random walks end in the sybil
    region only if they cross the thin attack-edge cut.  Returns, for a
    sample of honest nodes and every sybil, the fraction of walks from the
    verifier that end at (or pass through) that node's region — honest
    nodes score high, sybils near zero when attack edges are few.
    """
    rng = _random.Random(seed)
    sybil_set = set(sybils)
    honest = sorted(n for n in graph.nodes if n not in sybil_set)
    if not honest:
        raise ReproError("no honest nodes")
    verifier = honest[0]
    total_walks = walks_per_node * len(honest[:20])
    landings = random_walk_landings(graph, verifier, total_walks,
                                    walk_length, rng)
    # Region-level acceptance: probability mass landing in each region.
    sybil_mass = region_mass(landings, sybil_set, total_walks)
    honest_mass = 1.0 - sybil_mass
    return {
        "sybil_region_mass": sybil_mass,
        "honest_region_mass": honest_mass,
        "sybil_count_fraction": len(sybil_set) / graph.number_of_nodes(),
    }
