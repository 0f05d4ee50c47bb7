"""Cross-module integration tests: paper scenarios end-to-end.

Each test composes several subsystems the way a deployed DOSN would,
exercising the interactions the unit tests cannot see.
"""

import random

import networkx as nx
import pytest

from repro.acl.abe_acl import ABEACL
from repro.crypto.symmetric import random_key
from repro.dosn import DosnConfig, DosnNetwork
from repro.dosn.user import DosnUser
from repro.dosn.identity import KeyRegistry
from repro.exceptions import AccessDeniedError, IntegrityError
from repro.integrity import (create_post, verify_comment, write_comment)
from repro.search import (Matryoshka, SearchIndex, rank_results)
from repro.workloads import attach_trust, generate_posts, social_graph


class TestSocialWorkloadOnEveryArchitecture:
    """Run the same generated social workload on all four architectures and
    check functional equivalence + the exposure ordering the paper claims."""

    @pytest.fixture(scope="class")
    def workload(self):
        graph = social_graph(24, kind="ws", seed=21)
        posts = generate_posts(graph, 30, seed=22)
        return graph, posts

    def _run(self, architecture, workload, encrypt=True):
        graph, posts = workload
        net = DosnNetwork(config=DosnConfig(
            architecture=architecture, seed=23, encrypt_content=encrypt))
        for node in graph.nodes:
            net.add_user(str(node))
        net.apply_social_graph(graph)
        cids = {}
        for post in posts:
            cids[net.post(post.author, post.text)] = post.author
        return net, cids

    @pytest.mark.parametrize("arch", ["central", "dht", "federation"])
    def test_friends_read_everything(self, arch, workload):
        net, cids = self._run(arch, workload)
        graph, _ = workload
        checked = 0
        for cid, author in list(cids.items())[:10]:
            for friend in list(net.users[author].friends)[:2]:
                post = net.read(friend, author, cid).post
                assert post.author == author
                checked += 1
        assert checked > 0

    def test_exposure_ordering(self, workload):
        """central unencrypted >= federation >= dht for content view."""
        worst = {}
        for arch in ("central", "federation", "dht"):
            net, _ = self._run(arch, workload, encrypt=False)
            worst[arch] = net.worst_observer().content_view
        assert worst["central"] == 1.0
        assert worst["federation"] <= worst["central"]
        assert worst["dht"] <= worst["central"]

    def test_encryption_collapses_content_view(self, workload):
        net, _ = self._run("central", workload, encrypt=True)
        assert net.worst_observer().content_view == 0.0


class TestPartyScenarioEndToEnd:
    """The paper's Section IV scenario across the full stack: Bob posts a
    party invitation in the DOSN, friends comment, integrity is enforced."""

    def test_invitation_with_comments(self, rng):
        registry = KeyRegistry()
        bob = DosnUser("bob", registry)
        alice = DosnUser("alice", registry)
        carol = DosnUser("carol", registry)
        bob.befriend(alice)
        bob.befriend(carol)

        cid, document = bob.seal_post("Party at my place on Friday!",
                                      tags=["#party"])
        blob = bob.protect_document(document)
        alice.sync_timeline(bob)     # the chain entry is the post's signature
        opened = alice.verify_document("bob", alice.unlock("bob", blob),
                                       expected_cid=cid)
        assert opened.text.startswith("Party")

        # Cachet-style comment keys: bob authorizes alice but not eve.
        pairwise = {"alice": random_key(32, rng)}
        post = create_post(cid, "bob", opened.text.encode(), pairwise,
                           rng=rng)
        comment = write_comment(post, "alice", pairwise["alice"],
                                b"I'll be there!", rng=rng)
        verify_comment(post, comment)
        with pytest.raises(AccessDeniedError):
            write_comment(post, "eve", random_key(32, rng), b"crash it",
                          rng=rng)


class TestABEOverDosnContent:
    """Persona-style: fine-grained policies over a user's posts."""

    def test_policy_partitioned_audience(self):
        scheme = ABEACL(rng=random.Random(31))
        scheme.create_group("wall", ["family1", "family2", "colleague1"])
        scheme.grant_attribute("family1", "family")
        scheme.grant_attribute("family2", "family")
        scheme.grant_attribute("colleague1", "work")
        scheme.publish_with_policy("wall", "vacation", b"beach pics",
                                   "family")
        scheme.publish_with_policy("wall", "project", b"deadline moved",
                                   "work or family")
        assert scheme.read("wall", "vacation", "family2") == b"beach pics"
        with pytest.raises(AccessDeniedError):
            scheme.read("wall", "vacation", "colleague1")
        assert scheme.read("wall", "project", "colleague1") == \
            b"deadline moved"


class TestSearchPipeline:
    """Index + trust ranking + anonymity over one social graph."""

    def test_friend_search_with_trust_ranking(self):
        graph = attach_trust(social_graph(100, kind="ba", seed=41), seed=42)
        index = SearchIndex(blinding_secret=b"circle-secret-16" * 2)
        # users publish profile keywords into the circle index
        profiles = {f"user{i}": f"football fan user{i}" if i % 3 == 0
                    else f"chess player user{i}" for i in range(100)}
        for user, text in profiles.items():
            index.add_document(user, text)
        hits = index.search("football")
        assert hits and all(int(h[4:]) % 3 == 0 for h in hits)
        ranked = rank_results(graph, "user5", hits[:10])
        assert len(ranked) == len(hits[:10])
        scores = [r.score for r in ranked]
        assert scores == sorted(scores, reverse=True)

    def test_anonymous_search_via_matryoshka(self, rng):
        graph = social_graph(150, kind="ba", seed=43)
        core = "user10"
        shells = Matryoshka(graph, core, depth=3)
        request = shells.route_request("user99", rng)
        knowledge = shells.observer_knowledge(request)
        assert knowledge[core]["knows_requester"] is None


class TestAvailabilityPrivacyTradeoff:
    """Section I: availability requires replicas; replicas are observers."""

    def test_replication_trades_privacy_for_availability(self, rng):
        from repro.overlay.churn import ExponentialOnOff
        from repro.overlay import replication as rep

        peers = [f"peer{i}" for i in range(50)]
        churn = ExponentialOnOff(seed=51)
        times = [float(t) for t in range(3600, 400000, 7000)]
        rows = []
        for count in (0, 2, 6):
            placement = rep.place_random("peer0", peers, count,
                                         random.Random(52))
            availability = rep.measure_availability(placement, churn, times)
            exposure = rep.ReplicaExposure()
            exposure.record(placement, encrypted=False)
            rows.append((count, availability,
                         exposure.max_readable_view(50)))
        # availability grows with replication...
        assert rows[0][1] <= rows[1][1] <= rows[2][1]
        # ...and so does the number of peers who can read the data
        assert rows[0][2] <= rows[1][2] <= rows[2][2]
        # encryption removes the privacy cost entirely
        encrypted = rep.ReplicaExposure()
        encrypted.record(rep.place_random("peer0", peers, 6,
                                          random.Random(53)),
                         encrypted=True)
        assert encrypted.max_readable_view(50) == 0.0


class TestTimelineTamperingAcrossStorage:
    """A malicious DHT replica serves a stale/forged blob; the feed's
    verification layers catch it."""

    def test_replica_substitution_detected(self):
        net = DosnNetwork(architecture="dht", seed=61)
        for name in ("alice", "bob", "carol"):
            net.add_user(name)
        net.befriend("alice", "bob")
        cid1 = net.post("alice", "version one")
        cid2 = net.post("alice", "version two")
        # a malicious replica overwrites cid1's blob with cid2's
        for node in net.ring.nodes.values():
            if cid1 in node.store and cid2 in node.store:
                node.store[cid1] = node.store[cid2]
        substituted = all(
            node.store.get(cid1) == node.store.get(cid2)
            for node in net.ring.nodes.values() if cid1 in node.store)
        if substituted:
            with pytest.raises(IntegrityError):
                net.read("bob", "alice", cid1)
