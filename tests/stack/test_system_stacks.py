"""Every system model runs its content path through its declared stack."""

import networkx as nx
import pytest

from repro.dosn.api import DOSN_SPEC, DosnConfig, DosnNetwork
from repro.exceptions import (AccessDeniedError, OverlayError,
                              StorageError)
from repro.stack import registered_systems
from repro.systems.cachet import CACHET_SPEC, CachetNetwork
from repro.systems.cuckoo import CuckooNetwork
from repro.systems.diaspora import DiasporaNetwork
from repro.systems.peerson import PeersonNetwork
from repro.systems.prpl import PrplNetwork
from repro.systems.safebook import SafebookNetwork
from repro.systems.supernova import SupernovaNetwork


def _graph():
    return nx.relabel_nodes(nx.karate_club_graph(), str)


class TestStacksMatchSpecs:
    def test_every_network_stack_is_validated_against_its_spec(self):
        nets = [
            CachetNetwork(_graph(), seed=1),
            CuckooNetwork(seed=1),
            DiasporaNetwork(seed=1),
            PeersonNetwork(seed=1),
            PrplNetwork(seed=1),
            SafebookNetwork(_graph(), seed=1),
            SupernovaNetwork(seed=1),
            DosnNetwork(config=DosnConfig(architecture="local")),
        ]
        specs = registered_systems()
        for net in nets:
            spec = net.stack.spec
            assert spec is not None
            # the stack constructor validated layer sequence == spec;
            # here we check the spec is the registered one
            assert specs[spec.name].layers[:len(specs[spec.name].layers)] \
                == spec.layers[:len(specs[spec.name].layers)]

    def test_dosn_spec_rows(self):
        assert "Historical integrity" in DOSN_SPEC.rows_covered()
        assert "Symmetric key encryption" in DOSN_SPEC.rows_covered()

    def test_cachet_spec_rows(self):
        rows = CACHET_SPEC.rows_covered()
        assert "Attribute based encryption" in rows
        assert "Integrity of data relations" in rows


class TestCachetSatellites:
    def test_read_before_any_post_raises_proper_error(self):
        net = CachetNetwork(_graph(), seed=3)
        with pytest.raises((StorageError, OverlayError, AccessDeniedError)):
            net.read("0", "1", "never-posted")

    def test_authority_deterministic_per_owner(self):
        """Satellite: authority keys derive from (master seed, owner) only,
        independent of operation order before the first use."""
        g = _graph()
        net_a = CachetNetwork(g, seed=9)
        net_b = CachetNetwork(g, seed=9)
        # perturb net_b's shared rng before the authority is first built
        net_b.pairwise_key("0", "1")
        assert net_a._authority("0").pk == net_b._authority("0").pk

    def test_authority_differs_across_owners_and_seeds(self):
        g = _graph()
        net = CachetNetwork(g, seed=9)
        other = CachetNetwork(g, seed=10)
        assert net._authority("0").pk != net._authority("1").pk
        assert net._authority("0").pk != other._authority("0").pk

    def test_post_read_roundtrip_still_works(self):
        net = CachetNetwork(_graph(), seed=3)
        net.grant("0", "1", ["friend"])
        net.post("0", "p1", "hello", "friend", commenters=["1"])
        text, fetch = net.read("1", "0", "p1")
        assert text == "hello"
        assert fetch.source in ("dht", "cache", "own-cache")


class TestDosnThroughStack:
    def test_post_read_feed_roundtrip(self):
        net = DosnNetwork(config=DosnConfig(architecture="local", seed=5))
        for name in ["alice", "bob"]:
            net.add_user(name)
        net.befriend("alice", "bob")
        cid = net.post("alice", "stack-routed post", tags=("x",))
        post = net.read("bob", "alice", cid).post
        assert post.text == "stack-routed post"
        report = net.feed("bob")
        assert report.clean
        assert [item.post.text for item in report.items] == [
            "stack-routed post"]

    def test_feed_open_errors_still_reported_as_violations(self):
        net = DosnNetwork(config=DosnConfig(architecture="local", seed=5))
        for name in ["alice", "bob"]:
            net.add_user(name)
        net.befriend("alice", "bob")
        net.post("alice", "secret")
        # key loss: bob can fetch but not decrypt
        del net.users["bob"].friend_keys["alice"]
        report = net.feed("bob")
        assert not report.clean
        assert report.violations

    def test_legacy_span_tree_preserved(self):
        net = DosnNetwork(config=DosnConfig(architecture="local", seed=5,
                                            tracing=True))
        for name in ["alice", "bob"]:
            net.add_user(name)
        net.befriend("alice", "bob")
        cid = net.post("alice", "hi")
        net.read("bob", "alice", cid)
        names = [s.name for s in net.tracer.spans]
        assert "dosn.post" in names and "dosn.read" in names
        assert "storage.put" in names and "storage.get" in names
        # no stack-specific span names leak into the committed E13 tree
        assert not any(name.startswith("stack") for name in names)


class TestOtherSystemsThroughStack:
    def test_peerson_roundtrip_and_denial(self):
        net = PeersonNetwork(seed=2)
        for name in ("alice", "bob", "eve"):
            net.register(name)
        net.befriend("alice", "bob")
        key = net.post("alice", "i1", b"payload")
        assert net.read("bob", key) == b"payload"
        with pytest.raises(AccessDeniedError):
            net.read("eve", key)

    def test_safebook_roundtrip(self):
        net = SafebookNetwork(_graph(), seed=2)
        mirrors = net.publish_profile("0", b"profile-bytes")
        assert mirrors > 0
        profile, request, mirror = net.retrieve_profile("1", "0")
        assert profile == b"profile-bytes"
        assert mirror in request.path

    def test_supernova_roundtrip(self):
        net = SupernovaNetwork(seed=2)
        for name in ("alice", "bob", "kp1", "kp2", "kp3"):
            net.register(name)
        net.report_uptimes({"kp1": 0.9, "kp2": 0.8, "kp3": 0.7,
                            "alice": 0.5, "bob": 0.5})
        net.arrange_storekeepers("alice")
        net.store("alice", "i1", b"content")
        net.share_key("alice", "bob")
        assert net.retrieve("bob", "alice", "i1") == b"content"

    def test_diaspora_roundtrip_and_rotation(self):
        net = DiasporaNetwork(seed=2)
        for name in ("alice", "bob", "carl"):
            net.register(name)
        net.create_aspect("alice", "family", ["bob", "carl"])
        cid = net.read_cid = net.post("alice", "family", "hello family")
        assert net.read("bob", cid) == "hello family"
        net.remove_from_aspect("alice", "family", "carl")
        cid2 = net.post("alice", "family", "bob only")
        assert net.read("bob", cid2) == "bob only"
        with pytest.raises(AccessDeniedError):
            net.read("carl", cid2)

    def test_cuckoo_push_and_pull(self):
        net = CuckooNetwork(seed=2)
        for name in ("pub", "f1", "f2"):
            net.register(name)
        net.follow("f1", "pub")
        net.follow("f2", "pub")
        pid = net.post("pub", b"tweet")
        content, source = net.read("f1", pid)
        assert content == b"tweet" and source == "push"
        net.register("late")
        content, source = net.read("late", pid)
        assert content == b"tweet" and source == "pull"

    def test_prpl_store_and_fetch(self):
        net = PrplNetwork(seed=2)
        net.register("alice")
        net.register("bob")
        device = net.store("alice", "i1", b"doc")
        assert device in net.user_devices["alice"]
        content, hops = net.fetch("bob", "alice", "i1")
        assert content == b"doc" and hops >= 2
