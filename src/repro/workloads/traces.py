"""Activity traces: who posts what, when, and which items are popular.

Synthetic stand-ins for the production traces the surveyed systems were
evaluated on.  Two well-established empirical regularities are modelled,
because the experiments' conclusions depend on them:

* **Zipfian content popularity** — a few items attract most reads
  (:func:`zipf_choice` drives the hybrid overlay's cache-hit results,
  experiment E5);
* **heavy-tailed user activity** — post counts proportional to degree
  (high-degree users post and are read more).

Everything is generated from an explicit seed.
"""

from __future__ import annotations

import random as _random
from dataclasses import dataclass
from typing import List, Tuple

import networkx as nx

from repro.exceptions import ReproError

_WORDS = (
    "party photo travel music privacy crypto football recipe meeting "
    "birthday holiday concert project garden movie book coffee bike "
    "research deadline weekend beach snow family friends network social "
    "distributed security integrity search").split()

_TAGS = ("#party", "#privacy", "#crypto", "#travel", "#music", "#football",
         "#research", "#weekend", "#news", "#dosn")


@dataclass(frozen=True)
class PostEvent:
    """One authored post in the trace."""

    time: float
    author: str
    text: str
    tags: Tuple[str, ...]


def zipf_choice(rng: _random.Random, n: int, exponent: float = 1.0) -> int:
    """Sample an index in ``[0, n)`` with Zipfian weights (rank 0 hottest)."""
    if n < 1:
        raise ReproError("zipf_choice needs n >= 1")
    weights = [1.0 / (rank + 1) ** exponent for rank in range(n)]
    total = sum(weights)
    u = rng.random() * total
    acc = 0.0
    for index, w in enumerate(weights):
        acc += w
        if u <= acc:
            return index
    return n - 1


def generate_text(rng: _random.Random, words: int = 8) -> str:
    """A short synthetic post body."""
    return " ".join(rng.choice(_WORDS) for _ in range(words))


def generate_posts(graph: nx.Graph, count: int, seed: int = 0,
                   duration: float = 86400.0) -> List[PostEvent]:
    """``count`` posts over ``duration`` seconds, authors ~ degree."""
    rng = _random.Random(seed)
    users = sorted(str(n) for n in graph.nodes)
    weights = [graph.degree(u) + 1 for u in users]
    events = []
    for _ in range(count):
        author = rng.choices(users, weights=weights, k=1)[0]
        tags = tuple(rng.sample(_TAGS, rng.randint(0, 2)))
        events.append(PostEvent(
            time=rng.uniform(0, duration), author=author,
            text=generate_text(rng), tags=tags))
    events.sort(key=lambda e: e.time)
    return events
