"""Tests for the named-system compositions (PeerSoN, Safebook, Cachet,
Supernova, Diaspora)."""

import random

import networkx as nx
import pytest

from repro.exceptions import (AccessDeniedError, IntegrityError, OverlayError,
                              SearchError, StorageError)
from repro.systems import (CachetNetwork, DiasporaNetwork, PeersonNetwork,
                           SafebookNetwork, SupernovaNetwork)
from repro.workloads import social_graph
from tests.acl.held_keys import held_keys, opened


class TestPeerson:
    def _net(self, n=24):
        net = PeersonNetwork(seed=1)
        for i in range(n):
            net.register(f"p{i}")
        net.befriend("p0", "p1")
        net.befriend("p0", "p2")
        return net

    def test_friends_read_posts(self):
        net = self._net()
        key = net.post("p0", "status", b"peerson post")
        assert net.read("p1", key) == b"peerson post"
        assert net.read("p0", key) == b"peerson post"

    def test_non_friends_cannot_unwrap(self):
        net = self._net()
        key = net.post("p0", "status", b"private")
        with pytest.raises(AccessDeniedError):
            net.read("p9", key)

    def test_async_messaging_while_offline(self):
        """The PeerSoN scenario: sender and recipient never co-online."""
        net = self._net()
        net.go_offline("p1")
        net.send_async("p0", "p1", b"see you at the conference")
        net.go_offline("p0")
        net.go_online("p1")
        assert net.fetch_mailbox("p1") == [b"see you at the conference"]

    def test_mailbox_multiple_messages(self):
        net = self._net()
        net.send_async("p0", "p2", b"one")
        net.send_async("p1", "p2", b"two")
        assert net.fetch_mailbox("p2") == [b"one", b"two"]

    def test_an_outsider_keeping_every_key_opens_nothing_in_the_dht(self):
        """p9 befriends p3 and keeps its keypair: neither p0's post nor
        p1's mailbox entry, read straight off every DHT replica, opens."""
        net = self._net()
        net.befriend("p9", "p3")
        key = net.post("p0", "status", b"friends only")
        box = net.send_async("p0", "p1", b"for p1 alone")
        kept = held_keys(net.acl, "p9")
        assert len(kept) == 1
        for dht_key, text in ((key, b"friends only"),
                              (box, b"for p1 alone")):
            records = [node.store[dht_key] for node in net.ring.nodes.values()
                       if dht_key in node.store]
            assert len(records) == 2
            for record in records:
                assert opened(net.acl, record, kept) == []
                assert opened(net.acl, record,
                              held_keys(net.acl, "p1")) == [text]

    @pytest.mark.parametrize("order", [("mailbox/c", "c"),
                                       ("c", "mailbox/c")])
    def test_a_name_with_a_slash_is_rejected_in_either_order(self, order):
        """``mailbox/c`` would take c's mailbox group (registered first)
        or collide with it (registered second); c joins either way."""
        net = PeersonNetwork(seed=1)
        for name in order:
            if "/" in name:
                with pytest.raises(ValueError, match="may not contain"):
                    net.register(name)
            else:
                net.register(name)
        net.register("d")
        net.befriend("c", "d")
        assert sorted(net.ring.nodes) == ["c", "d"]
        key = net.post("c", "status", b"from c")
        assert net.read("d", key) == b"from c"
        box = net.send_async("d", "c", b"to c")
        assert box.startswith("peerson/mailbox/c/")
        assert net.fetch_mailbox("c") == [b"to c"]

    def test_dht_replication_keeps_posts_available(self):
        net = self._net()
        key = net.post("p0", "status", b"replicated")
        owner = net.ring.owner_of(key)
        if owner != "p1":
            net.ring.nodes[owner].online = False
            assert net.read("p1", key) == b"replicated"


class TestSafebook:
    GRAPH = social_graph(120, kind="ba", seed=2)

    def _net(self):
        net = SafebookNetwork(self.GRAPH, seed=3)
        mirrors = net.publish_profile("user10", b"safebook profile of 10")
        assert mirrors > 0
        return net

    def test_friend_retrieves_profile_anonymously(self):
        net = self._net()
        friend = str(next(iter(self.GRAPH.neighbors("user10"))))
        profile, request, mirror = net.retrieve_profile(friend, "user10")
        assert profile == b"safebook profile of 10"
        # the serving mirror is an innermost-shell friend, not the owner
        assert mirror in net._matryoshka("user10").shells[0]

    def test_owner_offline_profile_still_served(self):
        net = self._net()
        net.online["user10"] = False
        friend = str(next(iter(self.GRAPH.neighbors("user10"))))
        profile, _, _ = net.retrieve_profile(friend, "user10")
        assert profile == b"safebook profile of 10"

    def test_non_friend_cannot_decrypt(self):
        net = self._net()
        distances = nx.single_source_shortest_path_length(self.GRAPH,
                                                          "user10")
        stranger = next(n for n, d in distances.items() if d >= 2)
        with pytest.raises(AccessDeniedError):
            net.retrieve_profile(str(stranger), "user10")

    def test_a_graph_edge_is_not_a_key(self):
        """Refusal comes from the ciphertext: a stranger who turns up as
        the owner's neighbour after the keys were handed out still opens
        nothing."""
        graph = self.GRAPH.copy()
        net = SafebookNetwork(graph, seed=3)
        net.publish_profile("user10", b"safebook profile of 10")
        distances = nx.single_source_shortest_path_length(graph, "user10")
        stranger = next(str(n) for n, d in distances.items() if d >= 2)
        graph.add_edge(stranger, "user10")
        with pytest.raises(AccessDeniedError, match="holds no key"):
            net.retrieve_profile(stranger, "user10")

    def test_an_outsider_keeping_every_key_opens_no_mirror(self):
        """A stranger keeps every group key its own friends gave it; none
        opens the replica any mirror holds."""
        net = self._net()
        distances = nx.single_source_shortest_path_length(self.GRAPH,
                                                          "user10")
        stranger = next(str(n) for n, d in distances.items() if d >= 2)
        friend = str(next(iter(self.GRAPH.neighbors("user10"))))
        kept = held_keys(net.acl, stranger)
        assert len(kept) > 1
        replicas = list(net._mirrors["user10"].values())
        assert replicas
        for record in replicas:
            assert opened(net.acl, record, kept) == []
            assert len(opened(net.acl, record,
                              held_keys(net.acl, friend))) == 1

    def test_offline_relay_breaks_the_path(self):
        net = self._net()
        shells = net._matryoshka("user10")
        for node in shells.shells[0]:
            net.online[node] = False
        friend = shells.shells[0][0]
        # any route must pass an (offline) innermost relay
        with pytest.raises((SearchError, StorageError)):
            net.retrieve_profile("user100", "user10")

    def test_availability_grows_with_mirrors(self):
        net = self._net()
        many = net.availability("user10", offline_probability=0.5, seed=4)
        # a user with one mirror fares worse
        lonely_graph = nx.Graph()
        lonely_graph.add_edge("a", "b")
        lonely_graph.add_edge("b", "c")
        lonely_graph.add_edge("c", "d")
        lonely = SafebookNetwork(lonely_graph, seed=5)
        lonely.publish_profile("a", b"x")
        few = lonely.availability("a", offline_probability=0.5, seed=4)
        assert many >= few


class TestCachet:
    GRAPH = social_graph(60, kind="ws", seed=6)

    def _net(self):
        net = CachetNetwork(self.GRAPH, seed=7)
        net.grant("user0", "user1", ["friends"])
        net.grant("user0", "user2", ["family"])
        return net

    def test_policy_enforced_reads(self):
        net = self._net()
        net.post("user0", "post1", "cachet post", "friends",
                 commenters=["user1"])
        text, _ = net.read("user1", "user0", "post1")
        assert text == "cachet post"
        with pytest.raises(AccessDeniedError):
            net.read("user2", "user0", "post1")  # family != friends

    def test_owner_always_reads(self):
        net = self._net()
        net.post("user0", "post1", "mine", "friends and colleagues")
        text, _ = net.read("user0", "user0", "post1")
        assert text == "mine"

    def test_caching_kicks_in(self):
        net = self._net()
        net.post("user0", "hot", "popular", "friends")
        first = net.read("user1", "user0", "hot")[1]
        second = net.read("user1", "user0", "hot")[1]
        assert second.source == "cache"

    def test_comments_bound_to_posts(self):
        net = self._net()
        net.post("user0", "post1", "discuss", "friends",
                 commenters=["user1"])
        net.comment("user1", "post1", "great point")
        assert net.verified_comments("post1") == ["great point"]
        with pytest.raises(AccessDeniedError):
            net.comment("user2", "post1", "not invited")

    def test_ungranted_reader_rejected(self):
        net = self._net()
        net.post("user0", "post1", "x", "friends")
        with pytest.raises(AccessDeniedError):
            net.read("user5", "user0", "post1")

    def test_an_outsider_keeping_every_key_opens_nothing_in_the_dht(self):
        """user5 keeps each attribute key user0 issued it and a "friends"
        key from user3's authority; none opens user0's "friends" post read
        straight off the DHT."""
        net = self._net()
        kept = []
        for attributes in (["family"], ["colleagues"]):
            net.grant("user0", "user5", attributes)
            kept += held_keys(net._authority("user0"), "user5")
        net.grant("user3", "user5", ["friends"])
        kept += held_keys(net._authority("user3"), "user5")
        net.post("user0", "post1", "friends only", "friends")
        records = [node.store["post1"]
                   for node in net.overlay.ring.nodes.values()
                   if "post1" in node.store]
        assert records and len(kept) == 3
        scheme = net._authority("user0")
        for record in records:
            assert opened(scheme, record, kept) == []
            assert opened(scheme, record, held_keys(scheme, "user1")) == [
                b"friends only"]

    def test_a_fault_inside_verification_is_not_a_forged_comment(
            self, monkeypatch):
        """Only an :class:`IntegrityError` marks a comment as forged; any
        other error inside verification propagates."""
        net = self._net()
        net.post("user0", "post1", "discuss", "friends",
                 commenters=["user1"])
        net.comment("user1", "post1", "great point")

        def broken(meta, comment):
            raise KeyError("verification fault")

        monkeypatch.setattr("repro.systems.cachet.verify_comment", broken)
        with pytest.raises(KeyError):
            net.verified_comments("post1")

        def forged(meta, comment):
            raise IntegrityError("forged")

        monkeypatch.setattr("repro.systems.cachet.verify_comment", forged)
        assert net.verified_comments("post1") == []


class TestSupernova:
    def _net(self):
        net = SupernovaNetwork(seed=8)
        for i in range(30):
            net.register(f"n{i}")
        # uptime observations: n20..n29 are the reliable ones
        net.report_uptimes({f"n{i}": (0.2 if i < 20 else 0.95)
                            for i in range(30)})
        return net

    def test_storekeepers_are_best_uptime_peers(self):
        net = self._net()
        keepers = net.arrange_storekeepers("n0")
        assert len(keepers) == 3
        assert all(int(keeper[1:]) >= 20 for keeper in keepers)

    def test_store_and_retrieve_via_keepers(self):
        net = self._net()
        net.arrange_storekeepers("n0")
        net.store("n0", "album", b"supernova data")
        assert net.retrieve("n0", "n0", "album") == b"supernova data"
        # a friend handed the key out of band can read too
        net.share_key("n0", "n5")
        assert net.retrieve("n5", "n0", "album") == b"supernova data"

    def test_without_key_only_ciphertext(self):
        net = self._net()
        net.arrange_storekeepers("n0")
        net.store("n0", "album", b"secret")
        with pytest.raises(AccessDeniedError):
            net.retrieve("n5", "n0", "album")

    def test_an_outsider_keeping_every_key_opens_no_keeper_copy(self):
        """n8 keeps n1's key (shared before and after n0's store); no
        storekeeper's copy of n0's album opens with it."""
        net = self._net()
        keepers = net.arrange_storekeepers("n0")
        net.share_key("n1", "n8")
        net.share_key("n0", "n5")
        net.store("n0", "album", b"secret")
        kept = held_keys(net.acl, "n8")
        assert len(kept) == 2           # its own and n1's
        copies = [net._kept[keeper][("n0", "album")] for keeper in keepers]
        assert len(copies) == 3
        for record in copies:
            assert opened(net.acl, record, kept) == []
            assert opened(net.acl, record,
                          held_keys(net.acl, "n5")) == [b"secret"]

    def test_owner_offline_data_survives(self):
        net = self._net()
        net.arrange_storekeepers("n0")
        net.store("n0", "album", b"alive")
        net.overlay.peers["n0"].online = False
        net.share_key("n0", "n5")
        assert net.retrieve("n5", "n0", "album") == b"alive"

    def test_all_keepers_down_data_lost(self):
        net = self._net()
        keepers = net.arrange_storekeepers("n0")
        net.store("n0", "album", b"gone")
        for keeper in keepers:
            net.overlay.peers[keeper].online = False
        with pytest.raises(StorageError):
            net.retrieve("n0", "n0", "album")

    def test_store_without_agreement_rejected(self):
        net = self._net()
        with pytest.raises(OverlayError):
            net.store("n0", "album", b"x")


class TestDiaspora:
    def _net(self):
        net = DiasporaNetwork(seed=9)
        for i in range(20):
            net.register(f"d{i}")
        net.create_aspect("d0", "family", ["d1", "d2"])
        net.create_aspect("d0", "work", ["d3"])
        return net

    def test_aspect_members_read(self):
        net = self._net()
        cid = net.post("d0", "family", "family dinner sunday")
        assert net.read("d1", cid) == "family dinner sunday"
        assert net.read("d0", cid) == "family dinner sunday"

    def test_other_aspects_excluded(self):
        net = self._net()
        cid = net.post("d0", "family", "not for work")
        with pytest.raises(AccessDeniedError, match="holds no key") as err:
            net.read("d3", cid)
        assert err.type is AccessDeniedError

    def test_removal_rotates_key(self):
        net = self._net()
        old = net.post("d0", "family", "before removal")
        net.remove_from_aspect("d0", "family", "d2")
        new = net.post("d0", "family", "after removal")
        assert net.read("d1", new) == "after removal"
        # d2 is excluded twice over: the post is not federated to their
        # pod, and even a leaked ciphertext needs the rotated key.
        from repro.exceptions import LookupError_
        with pytest.raises((AccessDeniedError, LookupError_)):
            net.read("d2", new)
        # the paper's caveat: d2 may still hold the old key for old posts
        assert net.read("d2", old) == "before removal"

    def test_a_removed_member_keeping_every_key_opens_nothing_later(self):
        """Section III-B's rekey on removal, against the strongest removed
        member: one who kept every aspect key they were ever given (of
        every owner, aspect and epoch) and gets hold of the ciphertext
        anyway (a colluding pod, a leak).  Posts from before the removal
        open — the paper's caveat — and none from after it does."""
        net = self._net()
        net.create_aspect("d1", "friends", ["d2"])
        net.add_to_aspect("d0", "work", "d2")
        before = [net.post("d0", "family", "before removal")]
        net.remove_from_aspect("d0", "family", "d2")
        net.remove_from_aspect("d0", "family", "d1")
        net.add_to_aspect("d0", "family", "d1")
        after = [net.post("d0", "family", f"after removal {i}")
                 for i in range(3)]
        kept = held_keys(net.acl, "d2")
        assert len(kept) == 3           # family@0, work@0, d1's friends@0

        def opened_at_a_pod(cid):
            record = next(pod.content[cid][1]
                          for pod in net.federation.servers.values()
                          if cid in pod.content)
            return opened(net.acl, record, kept)

        assert [opened_at_a_pod(cid) for cid in before] == [
            [b"before removal"]]
        assert [opened_at_a_pod(cid) for cid in after] == [[], [], []]
        assert net.read("d1", after[-1]) == "after removal 2"

    def test_late_added_member(self):
        net = self._net()
        net.add_to_aspect("d0", "work", "d4")
        cid = net.post("d0", "work", "meeting moved")
        assert net.read("d4", cid) == "meeting moved"

    def test_no_pod_has_global_view(self):
        net = self._net()
        for i in range(10):
            net.post("d0", "family", f"post {i}")
            net.create_aspect(f"d{i + 1}", "friends", [f"d{(i + 2) % 20}"])
            net.post(f"d{i + 1}", "friends", f"from d{i + 1}")
        # many pods hold ciphertexts, none holds all AND none reads any
        fraction = net.worst_pod_content_fraction()
        assert 0.0 < fraction <= 1.0
        views = net.pod_views()
        assert sum(len(v["content_ids"]) for v in views.values()) >= \
            len(net._catalog)

    def test_unknown_aspect_rejected(self):
        net = self._net()
        with pytest.raises(OverlayError):
            net.post("d0", "ghosts", "boo")

    def test_remove_nonmember_rejected(self):
        net = self._net()
        with pytest.raises(AccessDeniedError):
            net.remove_from_aspect("d0", "family", "d9")
        with pytest.raises(AccessDeniedError):
            net.remove_from_aspect("d0", "family", "d0")
        assert net.read("d0", net.post("d0", "family", "mine")) == "mine"
