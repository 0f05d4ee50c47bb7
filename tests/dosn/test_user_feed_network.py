"""Tests for DosnUser, feed assembly, storage backends, and DosnNetwork."""

import json

import pytest

from repro.cache import CacheConfig
from repro.crypto.signatures import SchnorrSigner
from repro.dosn import ARCHITECTURES, DosnConfig, DosnNetwork
from repro.dosn.identity import KeyRegistry
from repro.dosn.storage import LocalBackend
from repro.dosn.user import DosnUser
from repro.exceptions import (AccessDeniedError, IntegrityError,
                              OverlayError, StorageError)


def small_net(architecture="dht", **overrides):
    config = DosnConfig(architecture=architecture, seed=5, **overrides)
    net = DosnNetwork(config=config)
    for name in ("alice", "bob", "carol", "dave", "eve"):
        net.add_user(name)
    net.befriend("alice", "bob")
    net.befriend("alice", "carol")
    net.befriend("bob", "dave")
    return net


def _open(user, author, blob, expected_cid=None):
    """What the read path does with a fetched blob: unlock, then verify
    (against the reader's view of ``author``, synced by the caller)."""
    return user.verify_document(author, user.unlock(author, blob),
                                expected_cid=expected_cid)


class TestDosnUser:
    def _pair(self):
        registry = KeyRegistry()
        alice = DosnUser("alice", registry)
        bob = DosnUser("bob", registry)
        alice.befriend(bob)
        return alice, bob

    def test_friend_opens_post(self):
        alice, bob = self._pair()
        cid, document = alice.seal_post("hello", tags=["#hi"])
        blob = alice.protect_document(document)
        bob.sync_timeline(alice)
        post = _open(bob, "alice", blob, expected_cid=cid)
        assert post.text == "hello" and post.tags == ("#hi",)

    def test_plaintext_refused_on_an_encrypted_network(self):
        """An encrypted network opens every blob with the author's key:
        a plaintext document a holder serves in its place is refused,
        not passed through as if the network were unencrypted."""
        alice, bob = self._pair()
        cid, document = alice.seal_post("hello")
        bob.sync_timeline(alice)
        with pytest.raises(AccessDeniedError):
            _open(bob, "alice", document, expected_cid=cid)

    def test_stranger_denied(self):
        registry = KeyRegistry()
        alice = DosnUser("alice", registry)
        eve = DosnUser("eve", registry)
        cid, document = alice.seal_post("private")
        blob = alice.protect_document(document)
        with pytest.raises(AccessDeniedError):
            _open(eve, "alice", blob, expected_cid=cid)

    def test_author_opens_own_post(self):
        alice, _ = self._pair()
        cid, document = alice.seal_post("mine")
        blob = alice.protect_document(document)
        alice.sync_timeline(alice)
        assert _open(alice, "alice", blob).text == "mine"

    def test_wrong_cid_detected(self):
        alice, bob = self._pair()
        cid1, document = alice.seal_post("one")
        blob1 = alice.protect_document(document)
        cid2, document = alice.seal_post("two")
        blob2 = alice.protect_document(document)
        with pytest.raises(IntegrityError, match="content id"):
            _open(bob, "alice", blob2, expected_cid=cid1)

    def test_impersonated_blob_detected(self):
        """Bob re-serves his own post claiming it is alice's."""
        alice, bob = self._pair()
        _, document = bob.seal_post("from bob")
        blob = bob.protect_document(document)
        # claim authorship: open as 'alice' fails on author mismatch or key
        with pytest.raises((IntegrityError, AccessDeniedError)):
            _open(alice, "alice", blob)

    def test_timeline_sync_and_verified_cids(self):
        alice, bob = self._pair()
        cids = [alice.seal_post(f"p{i}")[0] for i in range(3)]
        assert bob.sync_timeline(alice) == 3
        assert bob.verified_cids("alice") == tuple(cids)
        assert bob.sync_timeline(alice) == 0  # idempotent

    def test_unencrypted_mode(self):
        registry = KeyRegistry()
        alice = DosnUser("alice", registry, encrypt_content=False)
        eve = DosnUser("eve", registry, encrypt_content=False)
        cid, document = alice.seal_post("public by design")
        blob = alice.protect_document(document)
        eve.sync_timeline(alice)
        # anyone can open, but integrity still enforced
        assert _open(eve, "alice", blob).text == "public by design"


class TestFeed:
    def test_feed_collects_all_friends(self):
        net = small_net()
        net.post("bob", "bob post")
        net.post("carol", "carol post")
        feed = net.feed("alice")
        assert feed.clean
        assert sorted(i.post.text for i in feed.items) == [
            "bob post", "carol post"]

    def test_feed_ordering(self):
        net = small_net()
        for i in range(3):
            net.post("bob", f"b{i}")
        feed = net.feed("alice")
        sequences = [i.post.sequence for i in feed.items]
        assert sequences == sorted(sequences)

    def test_feed_limit(self):
        net = small_net()
        for i in range(5):
            net.post("bob", f"b{i}")
        feed = net.feed("alice", limit_per_friend=2)
        assert len(feed.items) == 2
        assert [i.post.text for i in feed.items] == ["b3", "b4"]

    @pytest.mark.parametrize("cache", [None, CacheConfig()])
    def test_feed_limit_zero_is_empty_not_everything(self, cache):
        """``cids[-0:]`` is the whole list: a limit of 0 used to return
        every post."""
        net = small_net(cache=cache)
        for i in range(3):
            net.post("bob", f"b{i}")
        for limit, texts in ((1, ["b2"]), (0, []), (7, ["b0", "b1", "b2"]),
                             (None, ["b0", "b1", "b2"])):
            feed = net.feed("alice", limit_per_friend=limit)
            assert feed.clean
            assert [i.post.text for i in feed.items] == texts
        # an empty feed still chain-syncs every friend
        net.post("carol", "c0")
        assert net.feed("alice", limit_per_friend=0).clean
        assert len(net.users["alice"].views["carol"].entries) == 1
        with pytest.raises(ValueError, match="limit_per_friend"):
            net.feed("alice", limit_per_friend=-1)

    def test_feed_reports_unavailable_content(self):
        net = small_net(architecture="local")
        net.post("bob", "will vanish")
        net.storage.online["bob"] = False
        feed = net.feed("alice")
        assert not feed.clean
        assert len(feed.unavailable) == 1

    def test_feed_flags_tampered_storage(self):
        net = small_net(architecture="central")
        cid = net.post("bob", "original")
        # provider swaps the blob for another user's
        other_cid = net.post("carol", "other")
        provider = net.provider
        provider._content[cid] = provider._content[other_cid]
        feed = net.feed("alice")
        assert any("carol" == author or "bob" == author
                   for author, _ in feed.violations) or not feed.clean

    def test_non_friends_not_in_feed(self):
        net = small_net()
        net.post("dave", "dave post")  # dave is bob's friend, not alice's
        feed = net.feed("alice")
        assert all(i.author != "dave" for i in feed.items)

    def test_mixed_failures_report_the_same_with_and_without_cache(self):
        """One loop, three configurations: a rewritten timeline, a lost
        blob and a forged post land in the same report fields, in the
        same order, whether the feed fetches cid by cid, batched, or
        batched behind the verified cache."""
        reports = []
        for cache in (None, CacheConfig(capacity_per_reader=0),
                      CacheConfig()):
            net = small_net(cache=cache)
            net.befriend("alice", "dave")
            net.post("bob", "b0")
            net.users["alice"].sync_timeline(net.users["bob"])
            # bob rewrites history alice has already verified
            timeline = net.users["bob"].timeline
            timeline.entries.pop()
            timeline.publish(b"another-cid", rng=net.users["bob"].rng)
            net.post("bob", "b1")
            net.post("carol", "c0")
            lost = net.post("carol", "c1")
            for node in net.ring.nodes.values():
                node.store.pop(lost, None)
            forged = net.post("dave", "d0")
            net.post("dave", "d1")
            dave = net.users["dave"]
            document = json.loads(
                dave.unlock("dave",
                            net.storage.fetch_blob("dave", forged).blob))
            document["text"] = "words dave never signed"
            net.storage.put("dave", forged, dave.protect_document(
                json.dumps(document).encode()))
            feed = net.feed("alice")
            reports.append((
                [(i.author, i.post.sequence, i.post.text)
                 for i in feed.items],
                feed.unavailable, feed.violations))
        items, unavailable, violations = reports[0]
        assert items == [("carol", 0, "c0"), ("dave", 1, "d1")]
        assert [cid for cid, _ in unavailable] == [lost]
        assert [author for author, _ in violations] == ["bob", "dave"]
        assert violations[0][1].startswith("timeline: ")
        assert "content id mismatch" in violations[1][1]
        assert reports[1] == reports[0] and reports[2] == reports[0]


def _document(net, author, cid):
    """The plaintext document storage holds for ``author``'s ``cid``."""
    user = net.users[author]
    blob = net.storage.fetch_blob(author, cid).blob
    return json.loads(user.unlock(author, blob))


def _never_chained(net, author):
    """A document ``author`` sealed whose chain entry was then dropped."""
    user = net.users[author]
    cid, document = user.seal_post("never chained")
    user.timeline.entries.pop()
    user.posts_published -= 1
    return cid, json.loads(document)


#: what a lying holder serves for bob's first post, given the cid of his
#: second and the genuine document
TAMPERINGS = {
    "changed text": lambda net, other, doc: {**doc, "text": "forged"},
    "changed tags": lambda net, other, doc: {**doc, "tags": ["#forged"]},
    "changed author": lambda net, other, doc: {**doc, "author": "carol"},
    "changed sequence": lambda net, other, doc: {**doc, "sequence": 1},
    "another post's document":
        lambda net, other, doc: _document(net, "bob", other),
    "a sequence never chained":
        lambda net, other, doc: _never_chained(net, "bob")[1],
}


class TestTamperedCopies:
    """A holder serves a doctored copy of a post: the read raises and the
    feed reports it, on every architecture, with encryption on."""

    @staticmethod
    def _serve(net, cid, document):
        bob = net.users["bob"]
        net.storage.put("bob", cid, bob.protect_document(
            json.dumps(document).encode()), recipients=sorted(bob.friends))

    @pytest.mark.parametrize("tampering", sorted(TAMPERINGS))
    @pytest.mark.parametrize("arch", ARCHITECTURES)
    def test_a_doctored_copy_never_reads(self, arch, tampering):
        net = small_net(architecture=arch, encrypt_content=True)
        victim = net.post("bob", "b0", tags=("#party",))
        other = net.post("bob", "b1")
        self._serve(net, victim, TAMPERINGS[tampering](
            net, other, _document(net, "bob", victim)))
        with pytest.raises(IntegrityError):
            net.read("alice", "bob", victim)
        feed = net.feed("alice")
        assert [(author, note.split(":")[0])
                for author, note in feed.violations] == [("bob", victim)]
        assert [item.post.text for item in feed.items] == ["b1"]

    @pytest.mark.parametrize("arch", ARCHITECTURES)
    def test_a_post_off_the_verified_chain_does_not_read(self, arch):
        """Well formed, stored under its own cid, never listed on the
        author's chain: the signed entry naming a cid is its signature."""
        net = small_net(architecture=arch, encrypt_content=True)
        net.post("bob", "b0")
        cid, document = _never_chained(net, "bob")
        self._serve(net, cid, document)
        with pytest.raises(IntegrityError, match="verified timeline"):
            net.read("alice", "bob", cid)
        assert [i.post.text for i in net.feed("alice").items] == ["b0"]

    @pytest.mark.parametrize("document", [
        {"author": "bob", "sequence": "zero", "text": "b0", "tags": []},
        {"author": "bob", "sequence": -1, "text": "b0", "tags": []},
        {"author": "bob", "sequence": 0, "text": 7, "tags": []},
        {"author": "bob", "sequence": 0, "text": "b0"},
        ["bob", 0, "b0", []],
    ], ids=["sequence", "negative", "text", "no tags", "not an object"])
    def test_a_malformed_copy_is_an_integrity_error(self, document):
        net = small_net(encrypt_content=True)
        cid = net.post("bob", "b0")
        self._serve(net, cid, document)
        with pytest.raises(IntegrityError, match="malformed"):
            net.read("alice", "bob", cid)
        assert [author for author, _ in net.feed("alice").violations] == [
            "bob"]


class TestHistoryRewrite:
    @pytest.mark.parametrize("cache", [None, CacheConfig()],
                             ids=["cold", "cached"])
    def test_a_rewrite_that_keeps_the_length_is_reported(self, cache):
        net = DosnNetwork(config=DosnConfig(architecture="dht", seed=3,
                                            cache=cache))
        for name in ("alice", "bob", "carol"):
            net.add_user(name)
        net.befriend("alice", "bob")
        net.post("bob", "b0")
        assert net.feed("alice").clean
        bob = net.users["bob"]
        bob.timeline.entries.pop()
        bob.posts_published -= 1
        rewritten = net.post("bob", "b0 rewritten")
        feed = net.feed("alice")
        assert [author for author, _ in feed.violations] == ["bob"]
        assert feed.violations[0][1].startswith("timeline: ")
        assert feed.items == []
        with pytest.raises(IntegrityError):
            net.read("alice", "bob", rewritten)

    def test_a_truncated_timeline_is_reported_and_its_prefix_still_reads(
            self):
        net = small_net()
        first = net.post("bob", "b0")
        net.post("bob", "b1")
        assert net.feed("alice").clean
        net.users["bob"].timeline.entries.pop()
        feed = net.feed("alice")
        assert [author for author, _ in feed.violations] == ["bob"]
        assert "truncated" in feed.violations[0][1]
        assert net.read("alice", "bob", first).post.text == "b0"


class TestDosnNetwork:
    def test_one_signature_per_post_and_per_repost(self, monkeypatch):
        net = small_net()
        signers = []
        sign = SchnorrSigner.sign

        def counted(signer, *args, **kwargs):
            signers.append(signer)
            return sign(signer, *args, **kwargs)

        monkeypatch.setattr(SchnorrSigner, "sign", counted)
        cid = net.post("bob", "b0", tags=("#t",))
        assert signers == [net.users["bob"].identity.signer]
        net.read("alice", "bob", cid)
        net.feed("alice")
        assert len(signers) == 1      # reading signs nothing
        net.repost("bob", cid)
        assert len(signers) == 2
        net.post("carol", "c0")
        assert len(signers) == 3

    @pytest.mark.parametrize("arch", ["central", "dht", "federation",
                                      "local"])
    def test_post_read_roundtrip(self, arch):
        net = small_net(architecture=arch)
        cid = net.post("alice", "hello world")
        result = net.read("bob", "alice", cid)
        assert result.post.text == "hello world"
        assert result.verified and not result.degraded
        assert result.source in ("quorum", "bare")

    def test_unknown_architecture(self):
        with pytest.raises(OverlayError):
            DosnNetwork(architecture="blockchain")

    def test_encrypted_central_provider_sees_nothing_readable(self):
        net = small_net(architecture="central")
        net.post("alice", "secret")
        worst = net.worst_observer()
        assert worst.observer == "provider"
        assert worst.content_view == 0.0
        assert worst.metadata_view == 1.0
        assert worst.graph_view == 1.0

    def test_unencrypted_central_full_exposure(self):
        net = small_net(architecture="central", encrypt_content=False)
        net.post("alice", "readable")
        worst = net.worst_observer()
        assert worst.content_view == 1.0

    def test_dht_distributes_exposure(self):
        net = DosnNetwork(config=DosnConfig(
            architecture="dht", seed=9, encrypt_content=False))
        names = [f"user{i}" for i in range(24)]
        for name in names:
            net.add_user(name)
        for i in range(0, 24, 2):
            net.befriend(names[i], names[i + 1])
        for name in names[:12]:
            net.post(name, f"post by {name}")
        worst = net.worst_observer()
        # no single peer stores everything
        assert worst.metadata_view < 1.0

    def test_apply_social_graph(self):
        import networkx as nx
        net = DosnNetwork(architecture="local", seed=1)
        graph = nx.path_graph(4)
        graph = nx.relabel_nodes(graph, {i: f"u{i}" for i in graph.nodes})
        for node in graph.nodes:
            net.add_user(str(node))
        net.apply_social_graph(graph)
        assert "u1" in net.users["u0"].friends

    @pytest.mark.parametrize("arch", ["central", "dht", "federation",
                                      "local"])
    def test_befriending_oneself_is_rejected(self, arch):
        net = small_net(architecture=arch)
        edges = net.graph.number_of_edges()
        with pytest.raises(OverlayError, match="themselves"):
            net.befriend("alice", "alice")
        assert "alice" not in net.users["alice"].friends
        assert net.graph.number_of_edges() == edges
        net.post("alice", "mine")
        assert net.feed("alice").items == []
        assert all(report.graph_view <= 1.0
                   for report in net.exposure_report())

    @pytest.mark.parametrize("pair", [("alice", "mallory"),
                                      ("mallory", "alice")])
    def test_befriending_an_unknown_user_is_rejected(self, pair):
        net = small_net(architecture="local")
        with pytest.raises(OverlayError, match="unknown user 'mallory'"):
            net.befriend(*pair)
        assert "mallory" not in net.graph

    @pytest.mark.parametrize("cache", [None, CacheConfig(),
                                       CacheConfig(capacity_per_reader=0)],
                             ids=["cold", "cached", "batched"])
    @pytest.mark.parametrize("operation", [
        "post", "read as zed", "read zed's", "feed", "repost"])
    def test_every_operation_rejects_an_unknown_user_first(self, operation,
                                                           cache):
        net = small_net(cache=cache, tracing=True)
        cid = net.post("bob", "hello")
        net.add_user("frank")            # routing is stale until ready()
        stats, closed = net.network.stats.summary(), len(net.tracer.spans)
        call = {"post": lambda: net.post("zed", "hi"),
                "read as zed": lambda: net.read("zed", "bob", cid),
                "read zed's": lambda: net.read("alice", "zed", cid),
                "feed": lambda: net.feed("zed"),
                "repost": lambda: net.repost("zed", cid)}[operation]
        with pytest.raises(OverlayError, match="unknown user 'zed'"):
            call()
        assert net.network.stats.summary() == stats
        assert len(net.tracer.spans) == closed
        assert net.storage._dirty, "the check runs before storage.ready()"

    def test_worst_observer_empty_network(self):
        net = DosnNetwork(architecture="local", seed=1)
        report = net.worst_observer()
        assert report.content_view == 0.0


class TestLocalBackend:
    def test_offline_owner_unavailable(self):
        backend = LocalBackend()
        backend.put("alice", "c1", b"x")
        assert backend.fetch_blob("bob", "c1").blob == b"x"
        backend.online["alice"] = False
        with pytest.raises(StorageError):
            backend.fetch_blob("bob", "c1").blob

    def test_missing_content(self):
        with pytest.raises(StorageError):
            LocalBackend().fetch_blob("bob", "ghost").blob
