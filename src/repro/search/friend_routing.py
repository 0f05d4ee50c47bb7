"""Searcher privacy via trusted-friend rings (Safebook's matryoshka).

Section V-B of the paper: "Trusted friends network is another approach ...
each user connects directly to trusted friends to forward messages.  It
will cause a concentric circle of friends around each user, which makes it
possible to communicate with the user without revealing identity or even IP
address."

:class:`Matryoshka` builds the concentric shells around a core user from
the social graph (shell k = peers at BFS distance k, each with a *parent*
one shell inward whom they trust).  A request enters at a random outermost-
shell node and is relayed inward hop by hop; each relay learns only its
neighbours on the path.  :meth:`observer_knowledge` reports who learned
what, giving experiment E7 its anonymity-set numbers.
"""

from __future__ import annotations

import random as _random
from collections import deque
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

import networkx as nx

from repro.exceptions import SearchError

_DEFAULT_RNG = _random.Random(0x3A7E)


@dataclass
class RoutedRequest:
    """A completed inward routing: the full relay path (requester first)."""

    requester: str
    core: str
    path: List[str]   # entry node ... innermost relay, excluding core

    @property
    def hops(self) -> int:
        """Relays traversed, including delivery to the core."""
        return len(self.path) + 1


class Matryoshka:
    """The concentric trusted-friend shells around one core user."""

    def __init__(self, graph: nx.Graph, core: str, depth: int = 3) -> None:
        if core not in graph:
            raise SearchError(f"{core!r} is not in the social graph")
        if depth < 1:
            raise SearchError("need at least one shell")
        self.graph = graph
        self.core = core
        self.depth = depth
        #: shell index (1-based) -> member nodes
        self.shells: List[List[str]] = []
        #: node -> its parent one shell inward
        self.parent: Dict[str, str] = {}
        self._build()

    def _build(self) -> None:
        distance = {self.core: 0}
        parent: Dict[str, str] = {}
        queue = deque([self.core])
        while queue:
            node = queue.popleft()
            if distance[node] >= self.depth:
                continue
            for neighbor in self.graph.neighbors(node):
                if neighbor not in distance:
                    distance[neighbor] = distance[node] + 1
                    parent[neighbor] = node
                    queue.append(neighbor)
        self.parent = parent
        self.shells = [
            sorted(n for n, d in distance.items() if d == k)
            for k in range(1, self.depth + 1)
        ]
        if not self.shells[-1]:
            raise SearchError(
                f"{self.core!r} has no peers at distance {self.depth}; "
                "reduce the shell depth")
        #: each entry point's relay path, in :attr:`entry_points` order
        self._paths = [self._path_from(entry) for entry in self.shells[-1]]

    @property
    def entry_points(self) -> List[str]:
        """The outermost shell — where requests enter."""
        return self.shells[-1]

    def route_request(self, requester: str,
                      rng: Optional[_random.Random] = None) -> RoutedRequest:
        """Route a request inward from a random entry point.

        The requester contacts one outer-shell node; each relay forwards to
        its trusted parent until the core is reached.  A requester inside
        the shells never relays (or serves) its own request: the entry
        point is drawn among those whose path avoids it, and
        :class:`SearchError` is raised when none does.
        """
        rng = rng or _DEFAULT_RNG
        clear = [path for path in self._paths if requester not in path]
        if not clear:
            raise SearchError(
                f"every path to {self.core!r} relays through the "
                f"requester {requester!r}")
        return RoutedRequest(requester=requester, core=self.core,
                             path=list(rng.choice(clear)))

    def _path_from(self, entry: str) -> List[str]:
        """The relays from ``entry`` inward to the core, excluding it."""
        path = [entry]
        while self.parent[path[-1]] != self.core:
            path.append(self.parent[path[-1]])
        return path

    # -- privacy accounting ---------------------------------------------------

    def observer_knowledge(self, request: RoutedRequest
                           ) -> Dict[str, Dict[str, Optional[str]]]:
        """Per-observer view of one routed request.

        Each relay knows only its predecessor and successor on the path;
        the *core* sees the innermost relay, never the requester; only the
        entry node sees the requester — and it does not know the core is
        the final destination (it just forwards to its trusted parent).
        """
        knowledge: Dict[str, Dict[str, Optional[str]]] = {}
        chain = [request.requester] + request.path + [request.core]
        for index in range(1, len(chain) - 1):
            node = chain[index]
            knowledge[node] = {
                "previous_hop": chain[index - 1],
                "next_hop": chain[index + 1],
                "knows_requester": chain[index - 1]
                if index == 1 else None,
                "knows_core": request.core
                if index == len(chain) - 2 else None,
            }
        knowledge[request.core] = {
            "previous_hop": chain[-2], "next_hop": None,
            "knows_requester": None, "knows_core": request.core,
        }
        return knowledge

    def requester_anonymity_set(self, population: int) -> int:
        """From the core's view, who could the requester be?

        The core sees only an inner-shell relay, so the requester could be
        anyone outside its first shell: population − 1 (core) − |shell 1|.
        """
        return max(1, population - 1 - len(self.shells[0]))
