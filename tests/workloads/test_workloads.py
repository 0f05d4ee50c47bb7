"""Tests for the synthetic workload generators."""

import random

import networkx as nx
import pytest

from repro.exceptions import ReproError
from repro.workloads import (attach_trust, generate_posts, social_graph,
                             zipf_choice)


class TestGraphs:
    @pytest.mark.parametrize("kind", ["ba", "ws", "er"])
    def test_generators_produce_labelled_graphs(self, kind):
        graph = social_graph(100, kind=kind, seed=3)
        assert all(str(n).startswith("user") for n in graph.nodes)
        assert graph.number_of_edges() > 0

    def test_ba_heavy_tail(self):
        graph = social_graph(500, kind="ba", seed=1)
        degrees = sorted((d for _, d in graph.degree()), reverse=True)
        # hubs exist: top degree far above the median
        assert degrees[0] > 4 * degrees[len(degrees) // 2]

    def test_er_connected_component(self):
        graph = social_graph(200, kind="er", seed=2)
        assert nx.is_connected(graph)

    def test_determinism(self):
        g1 = social_graph(60, seed=5)
        g2 = social_graph(60, seed=5)
        assert set(g1.edges) == set(g2.edges)
        g3 = social_graph(60, seed=6)
        assert set(g1.edges) != set(g3.edges)

    def test_unknown_kind(self):
        with pytest.raises(ReproError):
            social_graph(50, kind="smallworldz")

    def test_too_small(self):
        with pytest.raises(ReproError):
            social_graph(2)

    def test_attach_trust_bounds(self):
        graph = attach_trust(social_graph(50, seed=1), seed=2, low=0.3,
                             high=0.9)
        for a, b in graph.edges:
            assert 0.3 <= graph[a][b]["trust"] <= 0.9

    def test_attach_trust_invalid_bounds(self):
        with pytest.raises(ReproError):
            attach_trust(social_graph(20, seed=0), low=0.0)


class TestTraces:
    GRAPH = social_graph(60, seed=7)

    def test_zipf_choice_skew(self):
        rng = random.Random(1)
        counts = [0] * 20
        for _ in range(4000):
            counts[zipf_choice(rng, 20)] += 1
        assert counts[0] > counts[5] > counts[19]
        assert counts[0] > 4 * counts[19]

    def test_zipf_choice_degenerate(self):
        rng = random.Random(2)
        assert zipf_choice(rng, 1) == 0
        with pytest.raises(ReproError):
            zipf_choice(rng, 0)

    def test_posts_sorted_and_attributed(self):
        posts = generate_posts(self.GRAPH, 200, seed=8)
        assert len(posts) == 200
        times = [p.time for p in posts]
        assert times == sorted(times)
        users = {str(n) for n in self.GRAPH.nodes}
        assert all(p.author in users for p in posts)

    def test_high_degree_users_post_more(self):
        graph = social_graph(200, kind="ba", seed=9)
        posts = generate_posts(graph, 3000, seed=10)
        by_author = {}
        for p in posts:
            by_author[p.author] = by_author.get(p.author, 0) + 1
        hub = max(graph.nodes, key=graph.degree)
        leaf = min(graph.nodes, key=graph.degree)
        assert by_author.get(str(hub), 0) > by_author.get(str(leaf), 0)

    def test_determinism(self):
        p1 = generate_posts(self.GRAPH, 50, seed=13)
        p2 = generate_posts(self.GRAPH, 50, seed=13)
        assert p1 == p2
