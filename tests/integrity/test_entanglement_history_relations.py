"""Tests for cross-timeline entanglement, fork consistency, and relations."""

import dataclasses
import random

import pytest

from repro.crypto.signatures import generate_schnorr_keypair
from repro.crypto.symmetric import random_key
from repro.integrity import (EntanglementGraph, FortClient, ForkingServer,
                             HistoryServer, Timeline, cite, create_post,
                             verify_comment, write_comment)
from repro.integrity.relations import unwrap_signing_key
from repro.exceptions import AccessDeniedError, IntegrityError

ALICE_KEY = generate_schnorr_keypair("TOY", random.Random(10))
BOB_KEY = generate_schnorr_keypair("TOY", random.Random(11))
SERVER_KEY = generate_schnorr_keypair("TOY", random.Random(12))


class TestEntanglement:
    def _two_timelines(self, rng):
        bob = Timeline("bob", BOB_KEY)
        alice = Timeline("alice", ALICE_KEY)
        for i in range(3):
            bob.publish(f"bob{i}".encode(), rng=rng)
        # alice cites bob's entry 1 in her entry 0
        alice.publish(b"re: bob1", citations=[cite(bob.entries[1])], rng=rng)
        alice.publish(b"alice1", rng=rng)
        return bob, alice

    def test_citation_creates_cross_order(self, rng):
        bob, alice = self._two_timelines(rng)
        graph = EntanglementGraph()
        graph.add_timeline(bob.entries)
        graph.add_timeline(alice.entries)
        assert graph.verify_citations() == []
        assert graph.happened_before(("bob", 1), ("alice", 0))
        assert graph.happened_before(("bob", 0), ("alice", 1))  # transitive
        assert not graph.happened_before(("alice", 0), ("bob", 1))

    def test_uncited_entries_are_concurrent(self, rng):
        bob, alice = self._two_timelines(rng)
        graph = EntanglementGraph()
        graph.add_timeline(bob.entries)
        graph.add_timeline(alice.entries)
        graph.verify_citations()
        assert graph.concurrent(("bob", 2), ("alice", 0))

    def test_same_author_chain_order(self, rng):
        bob, _ = self._two_timelines(rng)
        graph = EntanglementGraph()
        graph.add_timeline(bob.entries)
        assert graph.happened_before(("bob", 0), ("bob", 2))
        assert not graph.happened_before(("bob", 2), ("bob", 0))

    def test_forged_citation_reported_not_edged(self, rng):
        bob = Timeline("bob", BOB_KEY)
        bob.publish(b"b0", rng=rng)
        alice = Timeline("alice", ALICE_KEY)
        alice.publish(b"a0", citations=[("bob", 0, b"\x00" * 32)], rng=rng)
        graph = EntanglementGraph()
        graph.add_timeline(bob.entries)
        graph.add_timeline(alice.entries)
        violations = graph.verify_citations()
        assert len(violations) == 1 and "forged" in violations[0]
        assert not graph.happened_before(("bob", 0), ("alice", 0))

    def test_citation_of_unknown_entry_reported(self, rng):
        alice = Timeline("alice", ALICE_KEY)
        alice.publish(b"a0", citations=[("ghost", 5, b"\x01" * 32)], rng=rng)
        graph = EntanglementGraph()
        graph.add_timeline(alice.entries)
        violations = graph.verify_citations()
        assert len(violations) == 1 and "unknown" in violations[0]

    def test_ancestors(self, rng):
        bob, alice = self._two_timelines(rng)
        graph = EntanglementGraph()
        graph.add_timeline(bob.entries)
        graph.add_timeline(alice.entries)
        graph.verify_citations()
        ancestors = graph.ancestors(("alice", 1))
        assert ("bob", 0) in ancestors and ("bob", 1) in ancestors
        assert ("bob", 2) not in ancestors

    def test_unknown_query_raises(self, rng):
        graph = EntanglementGraph()
        with pytest.raises(IntegrityError):
            graph.happened_before(("x", 0), ("y", 0))


class TestForkConsistency:
    def test_honest_server_never_accused(self, rng):
        server = HistoryServer(SERVER_KEY, rng)
        clients = [FortClient(f"c{i}", "wall", SERVER_KEY.public_key)
                   for i in range(3)]
        for round_number in range(5):
            for client in clients:
                ops, signed = server.fetch("wall", client.version)
                assert client.sync(ops, signed) is None
                server.submit("wall",
                              client.make_operation(
                                  f"{client.name}/{round_number}".encode()))
        for client in clients:
            ops, signed = server.fetch("wall", client.version)
            assert client.sync(ops, signed) is None
        for a in clients:
            for b in clients:
                assert a.compare_views(b) is None

    def _forked_world(self, rng):
        server = ForkingServer(SERVER_KEY, fork_members=["victim"], rng=rng)
        main = FortClient("main", "wall", SERVER_KEY.public_key)
        victim = FortClient("victim", "wall", SERVER_KEY.public_key)
        server.submit("wall", main.make_operation(b"public post"))
        ops, signed = server.fetch_as("wall", "main", main.version)
        assert main.sync(ops, signed) is None
        server.submit("wall", victim.make_operation(b"victim post"))
        ops, signed = server.fetch_as("wall", "victim", victim.version)
        assert victim.sync(ops, signed) is None
        return server, main, victim

    def test_fork_detected_by_view_exchange(self, rng):
        _, main, victim = self._forked_world(rng)
        evidence = main.compare_views(victim)
        assert evidence is not None
        assert "divergent" in evidence.description

    def test_fork_detected_by_embedded_views(self, rng):
        """When a forked client's op leaks into the other view, the
        embedded (version, root) stamp betrays the equivocation."""
        server, main, victim = self._forked_world(rng)
        server._history("wall").append(victim.make_operation(b"leak"))
        ops, signed = server.fetch_as("wall", "main", main.version)
        evidence = main.sync(ops, signed)
        assert evidence is not None
        assert "equivocated" in evidence.description \
            or "fork" in evidence.description

    def test_bad_root_signature_raises(self, rng):
        server = HistoryServer(SERVER_KEY, rng)
        client = FortClient("c", "wall", ALICE_KEY.public_key)  # wrong pin
        server.submit("wall", client.make_operation(b"x"))
        ops, signed = server.fetch("wall", 0)
        with pytest.raises(IntegrityError, match="signature"):
            client.sync(ops, signed)

    def test_suppressed_operation_detected(self, rng):
        """Server ships a signed root that does not match the ops it sent."""
        server = HistoryServer(SERVER_KEY, rng)
        client = FortClient("c", "wall", SERVER_KEY.public_key)
        server.submit("wall", client.make_operation(b"op1"))
        server.submit("wall", client.make_operation(b"op2"))
        ops, signed = server.fetch("wall", 0)
        evidence = client.sync(ops[:1], signed)  # one op withheld
        assert evidence is not None

    def test_membership_proofs_logarithmic(self, rng):
        from repro.integrity import ObjectHistory, Operation
        history = ObjectHistory("obj")
        for i in range(256):
            history.append(Operation(client="c", payload=str(i).encode(),
                                     seen_version=i, seen_root=b""))
        proof = history.prove_operation(100)
        assert len(proof.siblings) == 8  # log2(256)


class TestRelations:
    def _post_with_commenters(self, rng):
        keys = {"alice": random_key(32, rng), "carol": random_key(32, rng)}
        post = create_post("p1", "bob", b"party photos", keys, rng=rng)
        return post, keys

    def test_authorized_comment_verifies(self, rng):
        post, keys = self._post_with_commenters(rng)
        comment = write_comment(post, "alice", keys["alice"], b"nice!",
                                rng=rng)
        verify_comment(post, comment)  # no raise

    def test_unauthorized_commenter_denied(self, rng):
        post, _ = self._post_with_commenters(rng)
        with pytest.raises(AccessDeniedError):
            write_comment(post, "eve", b"x" * 32, b"spam", rng=rng)

    def test_wrong_pairwise_key_denied(self, rng):
        post, keys = self._post_with_commenters(rng)
        with pytest.raises(Exception):
            write_comment(post, "alice", keys["carol"], b"hm", rng=rng)

    def test_comment_transplant_detected(self, rng):
        post, keys = self._post_with_commenters(rng)
        other = create_post("p2", "bob", b"other post", keys, rng=rng)
        comment = write_comment(post, "alice", keys["alice"], b"!", rng=rng)
        with pytest.raises(IntegrityError, match="targets post"):
            verify_comment(other, comment)

    def test_comment_on_edited_post_detected(self, rng):
        post, keys = self._post_with_commenters(rng)
        comment = write_comment(post, "alice", keys["alice"], b"!", rng=rng)
        edited = dataclasses.replace(
            post, body=b"edited body") if False else None
        # CommentablePost is not frozen; simulate an edit directly:
        post.body = b"edited body"
        with pytest.raises(IntegrityError, match="different post content"):
            verify_comment(post, comment)

    def test_altered_comment_detected(self, rng):
        post, keys = self._post_with_commenters(rng)
        comment = write_comment(post, "alice", keys["alice"], b"ok", rng=rng)
        altered = dataclasses.replace(comment, body=b"not ok")
        with pytest.raises(IntegrityError, match="signature"):
            verify_comment(post, altered)

    def test_per_post_keys_differ(self, rng):
        keys = {"alice": random_key(32, rng)}
        p1 = create_post("p1", "bob", b"one", keys, rng=rng)
        p2 = create_post("p2", "bob", b"two", keys, rng=rng)
        assert p1.comment_verify_key.y != p2.comment_verify_key.y
        # a comment key unwrapped from p1 cannot sign for p2
        comment = write_comment(p1, "alice", keys["alice"], b"c", rng=rng)
        forged = dataclasses.replace(comment, post_id="p2",
                                     post_hash=p2.post_hash)
        with pytest.raises(IntegrityError):
            verify_comment(p2, forged)

    def test_unwrap_returns_working_signer(self, rng):
        post, keys = self._post_with_commenters(rng)
        signer = unwrap_signing_key(post, "carol", keys["carol"])
        assert signer.public_key.y == post.comment_verify_key.y
