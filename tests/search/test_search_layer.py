"""Tests for the secure social search layer (Section V)."""

import random

import networkx as nx
import pytest

from repro.exceptions import AccessDeniedError, SearchError
from repro.search import (AccessGuard, AliasProxy, BlindPublisher,
                          BlindSubscriber, DataOwner, HandlerDirectory,
                          Matryoshka, PseudonymousSearcher, ResourceOwner,
                          SearchIndex, best_trust_chain, blind_term, collude,
                          friends_only_policy, rank_results, tokenize)
from repro.search.proxy import anonymity_set_size


class TestSearchIndex:
    def _indexes(self):
        plain = SearchIndex()
        blinded = SearchIndex(blinding_secret=b"s" * 32)
        docs = {
            "c1": "weekend party at the beach #party",
            "c2": "research deadline friday",
            "c3": "party research crossover",
        }
        for idx in (plain, blinded):
            for cid, text in docs.items():
                idx.add_document(cid, text)
        return plain, blinded

    def test_tokenize(self):
        assert tokenize("Hello, World! #Party") == ["hello", "world",
                                                    "#party"]

    def test_same_results_both_modes(self):
        plain, blinded = self._indexes()
        for query in ("party", "research", "party research"):
            assert plain.search(query) == blinded.search(query)

    def test_conjunctive_semantics(self):
        plain, _ = self._indexes()
        assert plain.search("party research") == ["c3"]
        assert plain.search("party") == ["c1", "c3"]
        assert plain.search("ghost-term") == []

    def test_empty_query_rejected(self):
        plain, _ = self._indexes()
        with pytest.raises(SearchError):
            plain.search("   ")

    def test_host_view_leak_difference(self):
        plain, blinded = self._indexes()
        assert "party" in plain.host_view()
        assert "party" not in blinded.host_view()
        assert plain.vocabulary_leaked()
        assert not blinded.vocabulary_leaked()

    def test_blind_term_deterministic_keyed(self):
        assert blind_term(b"k" * 32, "x") == blind_term(b"k" * 32, "x")
        assert blind_term(b"k" * 32, "x") != blind_term(b"j" * 32, "x")


class TestBlindSubscribe:
    def test_subscription_decrypts_matching_only(self, rng):
        publisher = BlindPublisher("alice", rng=rng)
        subscriber = BlindSubscriber("bob", rng=rng)
        subscriber.subscribe(publisher, "#privacy")
        publisher.publish("#privacy", "one")
        publisher.publish("#cats", "two")
        publisher.publish("#privacy", "three")
        assert subscriber.fetch_all(publisher) == [("#privacy", "one"),
                                                   ("#privacy", "three")]

    def test_publisher_sees_only_blinded_values(self, rng):
        publisher = BlindPublisher("alice", rng=rng)
        s1 = BlindSubscriber("b1", rng=rng)
        s2 = BlindSubscriber("b2", rng=rng)
        s1.subscribe(publisher, "#same")
        s2.subscribe(publisher, "#same")
        log = publisher.subscription_log
        assert len(log) == 2 and log[0] != log[1]

    def test_unsubscribed_items_opaque(self, rng):
        publisher = BlindPublisher("alice", rng=rng)
        subscriber = BlindSubscriber("bob", rng=rng)
        subscriber.subscribe(publisher, "#a")
        item = publisher.publish("#b", "hidden")
        assert subscriber.try_decrypt(item) is None

    def test_tags_stable_per_keyword(self, rng):
        publisher = BlindPublisher("alice", rng=rng)
        i1 = publisher.publish("#k", "m1")
        i2 = publisher.publish("#k", "m2")
        assert i1.tag == i2.tag  # same keyword -> same matching tag


class TestProxy:
    def test_aliases_hide_identities(self, rng):
        proxy = AliasProxy("p", rng)
        proxy.register("alice")
        query = proxy.forward_query("alice", "find carol")
        assert "alice" not in query.alias
        assert query.alias.startswith("anon-")

    def test_alias_stable_per_user(self, rng):
        proxy = AliasProxy("p", rng)
        assert proxy.register("alice") == proxy.register("alice")

    def test_reply_routing(self, rng):
        proxy = AliasProxy("p", rng)
        alias = proxy.register("alice")
        user, payload = proxy.deliver_reply(alias, "results")
        assert user == "alice"
        with pytest.raises(SearchError):
            proxy.deliver_reply("anon-ffffffff", "x")

    def test_unregistered_user_rejected(self, rng):
        proxy = AliasProxy("p", rng)
        with pytest.raises(SearchError):
            proxy.forward_query("ghost", "q")

    def test_collusion_deanonymizes_everything(self, rng):
        p1, p2 = AliasProxy("p1", rng), AliasProxy("p2", rng)
        p1.register("alice")
        p2.register("bob")
        p1.forward_query("alice", "q1")
        p2.forward_query("bob", "q2")
        result = collude([p1, p2])
        assert result.fraction_linked == 1.0
        assert set(result.deanonymized.values()) == {"alice", "bob"}

    def test_anonymity_set_is_population(self, rng):
        proxy = AliasProxy("p", rng)
        for i in range(25):
            proxy.register(f"u{i}")
        assert anonymity_set_size(proxy) == 25


class TestMatryoshka:
    GRAPH = nx.relabel_nodes(nx.barabasi_albert_graph(150, 3, seed=5),
                             {i: f"u{i}" for i in range(150)})

    def test_shells_are_bfs_rings(self):
        shells = Matryoshka(self.GRAPH, "u7", depth=2)
        ring1 = set(shells.shells[0])
        assert ring1 == {str(n) for n in self.GRAPH.neighbors("u7")}
        for node in shells.shells[1]:
            assert node not in ring1 and node != "u7"

    def test_request_reaches_core_through_shells(self, rng):
        shells = Matryoshka(self.GRAPH, "u7", depth=3)
        request = shells.route_request("u100", rng)
        assert request.path[0] in shells.entry_points
        assert shells.parent[request.path[-1]] == "u7"
        assert request.hops <= 4

    def test_core_never_sees_requester(self, rng):
        shells = Matryoshka(self.GRAPH, "u7", depth=3)
        for _ in range(10):
            request = shells.route_request("u100", rng)
            knowledge = shells.observer_knowledge(request)
            assert knowledge["u7"]["knows_requester"] is None
            assert knowledge["u7"]["previous_hop"] in shells.shells[0]

    def test_only_entry_sees_requester(self, rng):
        shells = Matryoshka(self.GRAPH, "u7", depth=3)
        request = shells.route_request("u100", rng)
        knowledge = shells.observer_knowledge(request)
        entry = request.path[0]
        assert knowledge[entry]["knows_requester"] == "u100"
        for relay in request.path[1:]:
            assert knowledge[relay]["knows_requester"] is None

    @pytest.mark.parametrize("shell", [0, 1, 2])
    def test_a_requester_in_the_shells_never_relays_its_request(self, rng,
                                                                 shell):
        shells = Matryoshka(self.GRAPH, "u7", depth=3)
        for requester in shells.shells[shell]:
            try:
                request = shells.route_request(requester, rng)
            except SearchError:
                # every entry point's path runs through the requester
                assert all(requester in shells._path_from(entry)
                           for entry in shells.entry_points)
                continue
            assert requester not in request.path
            assert shells.parent[request.path[-1]] == "u7"

    def test_an_outer_shell_requester_enters_elsewhere(self):
        shells = Matryoshka(self.GRAPH, "u7", depth=3)
        requester = shells.entry_points[0]
        entries = {shells.route_request(requester, random.Random(i)).path[0]
                   for i in range(1000)}
        assert requester not in entries
        assert entries == set(shells.entry_points) - {requester}

    def test_an_inner_shell_requester_avoids_its_subtree(self):
        # u0 - u1 - {u2, u3}; u1's own request can relay through no one
        chain = nx.Graph([("u0", "u1"), ("u1", "u2"), ("u1", "u3"),
                          ("u0", "u4"), ("u4", "u5")])
        shells = Matryoshka(chain, "u0", depth=2)
        assert shells.entry_points == ["u2", "u3", "u5"]
        for seed in range(20):
            request = shells.route_request("u1", random.Random(seed))
            assert request.path == ["u5", "u4"]
        with pytest.raises(SearchError, match="requester"):
            Matryoshka(nx.path_graph(["c", "a", "b"]), "c",
                       depth=2).route_request("a", random.Random(0))

    def test_a_requester_on_no_path_draws_as_before(self):
        shells = Matryoshka(self.GRAPH, "u7", depth=3)
        outside = next(n for n in self.GRAPH
                       if n != "u7" and all(n not in shell
                                            for shell in shells.shells))
        ours = shells.route_request(outside, random.Random(9))
        entry = random.Random(9).choice(shells.entry_points)
        assert ours.path == shells._path_from(entry)

    def test_anonymity_set(self):
        shells = Matryoshka(self.GRAPH, "u7", depth=3)
        population = 150
        expected = population - 1 - len(shells.shells[0])
        assert shells.requester_anonymity_set(population) == expected

    def test_missing_core_rejected(self):
        with pytest.raises(SearchError):
            Matryoshka(self.GRAPH, "ghost")

    def test_depth_too_deep_for_small_graph(self):
        tiny = nx.path_graph(3)
        tiny = nx.relabel_nodes(tiny, {i: f"t{i}" for i in tiny.nodes})
        with pytest.raises(SearchError):
            Matryoshka(tiny, "t0", depth=10)


class TestZKPAccess:
    def _world(self, rng):
        owner = ResourceOwner("alice", rng=rng)
        owner.publish("alice/album", b"photos")
        guard = AccessGuard(owner)
        friend = PseudonymousSearcher("bob", rng=rng)
        friend.receive_credential(owner.issue_credential("alice/album"))
        return owner, guard, friend

    def test_credentialed_access(self, rng):
        _, guard, friend = self._world(rng)
        assert friend.access(guard, "alice/album") == b"photos"

    def test_uncredentialed_denied(self, rng):
        _, guard, _ = self._world(rng)
        stranger = PseudonymousSearcher("eve", rng=rng)
        with pytest.raises(AccessDeniedError):
            stranger.access(guard, "alice/album")

    def test_guard_log_contains_only_pseudonyms(self, rng):
        _, guard, friend = self._world(rng)
        friend.access(guard, "alice/album")
        friend.access(guard, "alice/album")
        pseudonyms = [p for p, _ in guard.grant_log]
        assert all(p.startswith("pseud-") for p in pseudonyms)
        assert "bob" not in str(guard.grant_log)
        assert len(set(pseudonyms)) == 2  # unlinkable sessions

    def test_replay_rejected(self, rng):
        owner, guard, friend = self._world(rng)
        from repro.search.zkp_access import AccessRequest
        from repro.crypto.zkp import prove_dlog_nizk
        credential = friend.credentials["alice/album"]
        pseudonym, nonce = "pseud-fixed", 42
        context = guard.request_context("alice/album", pseudonym, nonce)
        proof = prove_dlog_nizk(friend.group, credential.x, context, rng)
        request = AccessRequest(pseudonym=pseudonym,
                                resource_id="alice/album", nonce=nonce,
                                proof=proof)
        assert guard.handle(request) == b"photos"
        with pytest.raises(AccessDeniedError, match="replay"):
            guard.handle(request)

    def test_proof_bound_to_resource(self, rng):
        """A proof for one resource cannot unlock another."""
        owner = ResourceOwner("alice", rng=rng)
        owner.publish("r1", b"one")
        owner.publish("r2", b"two")
        guard = AccessGuard(owner)
        user = PseudonymousSearcher("bob", rng=rng)
        user.receive_credential(owner.issue_credential("r1"))
        from repro.search.zkp_access import AccessRequest
        from repro.crypto.zkp import prove_dlog_nizk
        context = guard.request_context("r1", "pseud-x", 1)
        proof = prove_dlog_nizk(user.group, user.credentials["r1"].x,
                                context, rng)
        bad = AccessRequest(pseudonym="pseud-x", resource_id="r2", nonce=1,
                            proof=proof)
        with pytest.raises(AccessDeniedError):
            guard.handle(bad)

    def test_unknown_resource(self, rng):
        _, guard, friend = self._world(rng)
        with pytest.raises(SearchError):
            guard.handle.__self__.owner.issue_credential("ghost")


class TestHandlers:
    def test_directory_shows_labels_not_content(self):
        alice = DataOwner("alice", friends_only_policy({"bob"}))
        alice.register("birthday", b"26 October 1990")
        alice.register("phone", b"555-1234", searchable=False)
        directory = HandlerDirectory()
        assert directory.publish(alice) == 1  # phone not searchable
        view = directory.directory_view()
        assert view == ["alice/birthday"]

    def test_search_then_owner_approval(self):
        alice = DataOwner("alice", friends_only_policy({"bob"}))
        alice.register("birthday", b"26 October 1990")
        directory = HandlerDirectory()
        directory.publish(alice)
        hits = directory.search("birth")
        assert len(hits) == 1
        assert alice.dereference("bob", hits[0].label) == b"26 October 1990"
        with pytest.raises(AccessDeniedError):
            alice.dereference("eve", hits[0].label)

    def test_request_log(self):
        alice = DataOwner("alice", friends_only_policy({"bob"}))
        alice.register("x", b"v")
        alice.dereference("bob", "x")
        try:
            alice.dereference("eve", "x")
        except AccessDeniedError:
            pass
        assert alice.request_log == [("bob", "x", True),
                                     ("eve", "x", False)]

    def test_unknown_handler(self):
        alice = DataOwner("alice")
        with pytest.raises(SearchError):
            alice.dereference("bob", "ghost")

    def test_default_policy_denies(self):
        alice = DataOwner("alice")
        alice.register("x", b"v")
        with pytest.raises(AccessDeniedError):
            alice.dereference("anyone", "x")


class TestTrustRanking:
    def _graph(self):
        graph = nx.Graph()
        graph.add_edge("alice", "bob", trust=0.9)
        graph.add_edge("bob", "sara", trust=0.8)
        graph.add_edge("alice", "carol", trust=0.4)
        graph.add_edge("carol", "sara", trust=0.9)
        graph.add_edge("carol", "dan", trust=0.5)
        return graph

    def test_best_chain_is_max_product(self):
        trust, chain = best_trust_chain(self._graph(), "alice", "sara")
        assert trust == pytest.approx(0.72)
        assert chain == ["alice", "bob", "sara"]

    def test_self_trust(self):
        assert best_trust_chain(self._graph(), "alice", "alice") == \
            (1.0, ["alice"])

    def test_depth_limit(self):
        graph = nx.path_graph(6)
        graph = nx.relabel_nodes(graph, {i: f"n{i}" for i in graph.nodes})
        for a, b in graph.edges:
            graph[a][b]["trust"] = 0.9
        trust, chain = best_trust_chain(graph, "n0", "n5", max_depth=3)
        assert trust == 0.0 and chain == []
        trust, chain = best_trust_chain(graph, "n0", "n5", max_depth=5)
        assert trust == pytest.approx(0.9 ** 5)

    def test_invalid_trust_weight_rejected(self):
        graph = nx.Graph()
        graph.add_edge("a", "b", trust=1.5)
        with pytest.raises(SearchError):
            best_trust_chain(graph, "a", "b")

    def test_missing_nodes_rejected(self):
        with pytest.raises(SearchError):
            best_trust_chain(self._graph(), "alice", "ghost")

    def test_ranking_blends_trust_and_popularity(self):
        graph = self._graph()
        ranked = rank_results(graph, "alice", ["sara", "dan"],
                              trust_weight=1.0)
        assert ranked[0].user == "sara"  # higher trust
        popularity = {"sara": 0.1, "dan": 1.0}
        ranked = rank_results(graph, "alice", ["sara", "dan"],
                              popularity=popularity, trust_weight=0.0)
        assert ranked[0].user == "dan"  # popularity only

    def test_unreachable_candidate_scored_by_popularity(self):
        graph = self._graph()
        graph.add_node("hermit")
        ranked = rank_results(graph, "alice", ["hermit"],
                              popularity={"hermit": 0.9})
        assert ranked[0].trust == 0.0
        assert ranked[0].score == pytest.approx(0.3 * 0.9)

    def test_invalid_weight(self):
        with pytest.raises(SearchError):
            rank_results(self._graph(), "alice", ["sara"], trust_weight=2.0)
