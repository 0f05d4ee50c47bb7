"""Synthetic social graphs with trust weights.

Substitute for the real OSN populations the surveyed systems ran on:
Barabási–Albert (preferential attachment — the heavy-tailed degree
distributions measured for real OSNs by Mislove et al., the paper's [1]),
Watts–Strogatz (high clustering, small world) and Erdős–Rényi (the
no-structure control).  All generators relabel nodes to ``user<N>`` strings
and can attach per-edge trust weights for the Section V-D experiments.
"""

from __future__ import annotations

import random as _random

import networkx as nx

from repro.exceptions import ReproError


def _relabel(graph: nx.Graph, prefix: str) -> nx.Graph:
    return nx.relabel_nodes(graph, {n: f"{prefix}{n}" for n in graph.nodes})


def social_graph(n: int, kind: str = "ba", seed: int = 0,
                 prefix: str = "user", **params) -> nx.Graph:
    """Generate a social graph of ``n`` users.

    ``kind``: ``"ba"`` (Barabási–Albert, param ``m`` edges per newcomer,
    default 3), ``"ws"`` (Watts–Strogatz, params ``k`` neighbours default 6
    and rewiring ``p`` default 0.1), or ``"er"`` (Erdős–Rényi, param ``p``
    default chosen for mean degree ~6).
    """
    if n < 4:
        raise ReproError("social graphs need at least 4 users")
    if kind == "ba":
        graph = nx.barabasi_albert_graph(n, params.get("m", 3), seed=seed)
    elif kind == "ws":
        graph = nx.watts_strogatz_graph(n, params.get("k", 6),
                                        params.get("p", 0.1), seed=seed)
    elif kind == "er":
        p = params.get("p", min(1.0, 6.0 / (n - 1)))
        graph = nx.erdos_renyi_graph(n, p, seed=seed)
        # Keep experiments simple: work on the giant component.
        if not nx.is_connected(graph):
            giant = max(nx.connected_components(graph), key=len)
            graph = graph.subgraph(giant).copy()
    else:
        raise ReproError(f"unknown graph kind {kind!r}")
    return _relabel(graph, prefix)


def attach_trust(graph: nx.Graph, seed: int = 0, low: float = 0.3,
                 high: float = 1.0) -> nx.Graph:
    """Attach uniform-random trust weights in ``(low, high]`` to all edges."""
    if not 0.0 < low <= high <= 1.0:
        raise ReproError("trust bounds must satisfy 0 < low <= high <= 1")
    rng = _random.Random(seed)
    for a, b in graph.edges:
        graph[a][b]["trust"] = rng.uniform(low, high)
    return graph
