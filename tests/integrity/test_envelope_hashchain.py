"""Tests for message envelopes and hash-chained timelines.

The envelope tests reproduce the paper's Section IV party-invitation
scenario attack by attack.
"""

import dataclasses
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.groups import group_for_level
from repro.crypto.hashing import digest_many
from repro.crypto.signatures import SchnorrPublicKey, generate_schnorr_keypair
from repro.integrity import envelope as env
from repro.integrity import hashchain as hc
from repro.exceptions import IntegrityError
from tests.crypto import reference as ref

BOB = generate_schnorr_keypair("TOY", random.Random(1))
MALLORY = generate_schnorr_keypair("TOY", random.Random(2))


def party_invitation(rng, **overrides):
    kwargs = dict(sender="bob", body=b"Come to my party on Friday",
                  issued_at=100.0, recipient="alice", expires_at=500.0,
                  sequence=3)
    kwargs.update(overrides)
    return env.seal(BOB, rng=rng, **kwargs)


class TestPartyScenario:
    """Each paper aspect: the attack, and the check that catches it."""

    def test_valid_invitation_opens(self, rng):
        letter = party_invitation(rng)
        body = env.open_envelope(letter, BOB.public_key, "alice", now=200.0)
        assert body == b"Come to my party on Friday"

    def test_owner_integrity_forged_sender(self, rng):
        """Mallory signs a letter claiming to be from Bob."""
        forged = env.seal(MALLORY, "bob", b"Party cancelled!",
                          issued_at=100.0, recipient="alice", rng=rng)
        with pytest.raises(IntegrityError, match="owner/content"):
            env.open_envelope(forged, BOB.public_key, "alice")

    def test_content_integrity_tampered_body(self, rng):
        letter = party_invitation(rng)
        tampered = dataclasses.replace(letter,
                                       body=b"Come to my party on Monday")
        with pytest.raises(IntegrityError, match="owner/content"):
            env.open_envelope(tampered, BOB.public_key, "alice")
        assert env.tampered_with(tampered, BOB.public_key)

    def test_historical_integrity_expired_invitation(self, rng):
        letter = party_invitation(rng)
        with pytest.raises(IntegrityError, match="historical"):
            env.open_envelope(letter, BOB.public_key, "alice", now=9999.0)

    def test_relation_integrity_wrong_recipient(self, rng):
        """Bob's invitation to Carol replayed at Alice."""
        to_carol = party_invitation(rng, recipient="carol")
        with pytest.raises(IntegrityError, match="relation"):
            env.open_envelope(to_carol, BOB.public_key, "alice")

    def test_every_field_is_signature_covered(self, rng):
        letter = party_invitation(rng)
        mutations = [
            {"sender": "mallory"}, {"recipient": "carol"},
            {"body": b"x"}, {"issued_at": 101.0}, {"expires_at": 501.0},
            {"sequence": 4},
        ]
        for mutation in mutations:
            bad = dataclasses.replace(letter, **mutation)
            assert env.tampered_with(bad, BOB.public_key), mutation

    def test_broadcast_envelope(self, rng):
        wall_post = party_invitation(rng, recipient=None, expires_at=None)
        assert env.open_envelope(wall_post, BOB.public_key,
                                 now=1e9) == wall_post.body

    def test_no_expiry_never_expires(self, rng):
        letter = party_invitation(rng, expires_at=None)
        env.open_envelope(letter, BOB.public_key, "alice", now=1e12)


class TestTimeline:
    def _timeline(self, rng, n=6):
        timeline = hc.Timeline("bob", BOB)
        for i in range(n):
            timeline.publish(f"post {i}".encode(), rng=rng)
        return timeline

    def test_view_accepts_honest_chain(self, rng):
        timeline = self._timeline(rng)
        view = hc.TimelineView("bob", BOB.public_key)
        view.accept_all(timeline.entries)
        assert view.head_hash == timeline.head_hash

    def test_genesis_linking(self, rng):
        timeline = self._timeline(rng, 1)
        assert timeline.entries[0].previous == hc.GENESIS

    def test_tampered_payload_detected(self, rng):
        timeline = self._timeline(rng)
        entries = list(timeline.entries)
        entries[2] = dataclasses.replace(entries[2], payload=b"evil edit")
        view = hc.TimelineView("bob", BOB.public_key)
        with pytest.raises(IntegrityError):
            view.accept_all(entries)

    def test_suppressed_entry_detected(self, rng):
        """Dropping entry 2 breaks the chain at entry 3."""
        timeline = self._timeline(rng)
        entries = timeline.entries[:2] + timeline.entries[3:]
        view = hc.TimelineView("bob", BOB.public_key)
        with pytest.raises(IntegrityError, match="sequence gap"):
            view.accept_all(entries)

    def test_reordered_entries_detected(self, rng):
        timeline = self._timeline(rng)
        entries = list(timeline.entries)
        entries[1], entries[2] = entries[2], entries[1]
        view = hc.TimelineView("bob", BOB.public_key)
        with pytest.raises(IntegrityError):
            view.accept_all(entries)

    def test_wrong_author_rejected(self, rng):
        timeline = self._timeline(rng)
        view = hc.TimelineView("alice", BOB.public_key)
        with pytest.raises(IntegrityError, match="authored by"):
            view.accept(timeline.entries[0])

    def test_forged_signature_rejected(self, rng):
        timeline = hc.Timeline("bob", MALLORY)  # mallory signs as bob
        timeline.publish(b"fake", rng=rng)
        view = hc.TimelineView("bob", BOB.public_key)
        with pytest.raises(IntegrityError, match="signature"):
            view.accept(timeline.entries[0])

    def test_incremental_acceptance(self, rng):
        timeline = hc.Timeline("bob", BOB)
        view = hc.TimelineView("bob", BOB.public_key)
        for i in range(4):
            entry = timeline.publish(str(i).encode(), rng=rng)
            view.accept(entry)
        assert len(view.entries) == 4

    def test_replayed_entry_rejected(self, rng):
        timeline = self._timeline(rng, 2)
        view = hc.TimelineView("bob", BOB.public_key)
        view.accept_all(timeline.entries)
        with pytest.raises(IntegrityError, match="sequence gap"):
            view.accept(timeline.entries[1])


def _resigned(entry, signer, rng, **fields):
    """``entry`` with ``fields`` replaced, signed afresh by ``signer``."""
    unsigned = dataclasses.replace(entry, **fields)
    return dataclasses.replace(
        unsigned, signature=signer.sign(unsigned.signed_bytes(), rng=rng))


def _bump(signature):
    return (signature[0], signature[1] + 1)


#: each tampered batch of six over an empty view: what it does to the
#: batch, the exact rejection, and how many entries land before it
TAMPER_MATRIX = {
    "tampered middle payload": (
        lambda e, rng: e[:2] + [dataclasses.replace(e[2], payload=b"evil")]
        + e[3:],
        "entry signature does not verify", 2),
    "bad middle signature": (
        lambda e, rng: e[:2] + [dataclasses.replace(
            e[2], signature=_bump(e[2].signature))] + e[3:],
        "entry signature does not verify", 2),
    "suppressed": (
        lambda e, rng: e[:2] + e[3:],
        "sequence gap: got 3, expected 2 (missing or replayed entries)", 2),
    "reordered": (
        lambda e, rng: [e[0], e[2], e[1]] + e[3:],
        "sequence gap: got 2, expected 1 (missing or replayed entries)", 1),
    "foreign author": (
        lambda e, rng: e[:3] + [_resigned(e[3], MALLORY, rng,
                                          author="mallory")] + e[4:],
        "entry authored by 'mallory', expected 'bob'", 3),
    "forged tail": (
        lambda e, rng: e[:5] + [_resigned(e[5], MALLORY, rng,
                                          payload=b"forged")],
        "entry signature does not verify", 5),
}


class TestBatchAcceptance:
    """``accept_all`` checks one signature for a batch that links from
    the view's head, and rejects everything else exactly as a per-entry
    loop of ``accept`` does."""

    @staticmethod
    def _fresh(rng, n=6):
        timeline = hc.Timeline("bob", BOB)
        for i in range(n):
            timeline.publish(f"post {i}".encode(), rng=rng)
        return timeline.entries

    @staticmethod
    def _one_by_one(entries):
        """The per-entry loop ``accept_all`` falls back to."""
        view = hc.TimelineView("bob", BOB.public_key)
        try:
            for entry in entries:
                view.accept(entry)
        except IntegrityError as exc:
            return str(exc), len(view.entries)
        return None, len(view.entries)

    @pytest.mark.parametrize("m", [2, 6, 17])
    def test_a_linked_batch_costs_one_verify(self, rng, verifies, m):
        entries = self._fresh(rng, m)
        view = hc.TimelineView("bob", BOB.public_key)
        view.accept_all(entries[:1])
        assert len(verifies) == 1
        view.accept_all(entries[1:])
        assert len(verifies) == 2
        assert view.entries == entries
        assert view.head_hash == entries[-1].entry_hash()
        assert entries[-1]._verified_under is BOB.public_key
        assert all(e._verified_under is None for e in entries[1:-1])

    @pytest.mark.parametrize("case", sorted(TAMPER_MATRIX))
    def test_tampered_batches_fail_as_the_loop_does(self, rng, case):
        tamper, message, accepted = TAMPER_MATRIX[case]
        batch = tamper([dataclasses.replace(e) for e in self._fresh(rng)],
                       rng)
        view = hc.TimelineView("bob", BOB.public_key)
        with pytest.raises(IntegrityError) as raised:
            view.accept_all(batch)
        assert str(raised.value) == message
        assert len(view.entries) == accepted
        assert view.entries == batch[:accepted]
        fresh = [dataclasses.replace(e) for e in batch]
        assert self._one_by_one(fresh) == (message, accepted)

    def test_a_batch_off_the_head_is_checked_entry_by_entry(self, rng,
                                                           verifies):
        entries = self._fresh(rng)
        view = hc.TimelineView("bob", BOB.public_key)
        view.accept_all(entries[:2])
        del verifies[:]
        with pytest.raises(IntegrityError, match="sequence gap"):
            view.accept_all(entries[1:])                     # replays 1
        assert verifies == [] and len(view.entries) == 2
        with pytest.raises(IntegrityError, match="chain break"):
            view.accept_all([dataclasses.replace(e, previous=hc.GENESIS)
                             if e.sequence == 2 else e
                             for e in entries[2:]])
        assert len(view.entries) == 2

    def test_the_author_can_vouch_for_their_own_bad_signature(self, rng):
        """The one case that differs from the loop: the author signed a
        successor of their own badly-signed entry, so the newest valid
        signature covers the bad one through its hash."""
        entries = list(self._fresh(rng, 3))
        entries[2] = dataclasses.replace(entries[2],
                                         signature=_bump(entries[2].signature))
        entries.append(_resigned(entries[2], BOB, rng, sequence=3,
                                 previous=entries[2].entry_hash(),
                                 payload=b"after the bad one"))
        view = hc.TimelineView("bob", BOB.public_key)
        view.accept_all(entries)
        assert view.entries == entries
        assert self._one_by_one(entries) == (
            "entry signature does not verify", 2)


class TestOrderProofs:
    def test_valid_proof_verifies(self, rng):
        timeline = hc.Timeline("bob", BOB)
        for i in range(10):
            timeline.publish(str(i).encode(), rng=rng)
        proof = hc.order_proof(timeline.entries, 2, 7)
        assert hc.verify_order_proof(proof, BOB.public_key)
        assert proof.segment[0].sequence == 2
        assert proof.segment[-1].sequence == 7

    def test_bad_ranges_rejected(self, rng):
        timeline = hc.Timeline("bob", BOB)
        for i in range(3):
            timeline.publish(str(i).encode(), rng=rng)
        for earlier, later in ((2, 2), (2, 1), (-1, 2), (0, 3)):
            with pytest.raises(IntegrityError):
                hc.order_proof(timeline.entries, earlier, later)

    def test_spliced_proof_rejected(self, rng):
        """Segments from two different timelines don't chain."""
        t1 = hc.Timeline("bob", BOB)
        t2 = hc.Timeline("bob", BOB)
        for i in range(4):
            t1.publish(f"a{i}".encode(), rng=rng)
            t2.publish(f"b{i}".encode(), rng=rng)
        spliced = hc.OrderProof(segment=(t1.entries[1], t2.entries[2]))
        assert not hc.verify_order_proof(spliced, BOB.public_key)

    def test_single_entry_is_not_an_order_proof(self, rng):
        timeline = hc.Timeline("bob", BOB)
        timeline.publish(b"x", rng=rng)
        proof = hc.OrderProof(segment=(timeline.entries[0],))
        assert not hc.verify_order_proof(proof, BOB.public_key)

    def test_wrong_key_rejected(self, rng):
        timeline = hc.Timeline("bob", BOB)
        for i in range(3):
            timeline.publish(str(i).encode(), rng=rng)
        proof = hc.order_proof(timeline.entries, 0, 2)
        assert not hc.verify_order_proof(proof, MALLORY.public_key)


def reference_entry_hash(entry):
    """``ChainEntry.entry_hash`` as written before it was remembered."""
    return digest_many([
        entry.author.encode(), entry.sequence.to_bytes(8, "big"),
        entry.previous, entry.payload,
        *(f"{a}:{s}".encode() + h for a, s, h in entry.citations),
        repr(entry.signature).encode(),
    ])


class TestEntryHashMemo:
    """The remembered ``entry_hash`` never outlives the fields it covers."""

    PINNED = hc.ChainEntry(author="bob", sequence=3, previous=b"prev",
                           payload=b"post 3",
                           citations=(("alice", 1, b"h"),),
                           signature=(17, 42))

    def _timeline(self, rng, n=4):
        timeline = hc.Timeline("bob", BOB)
        for i in range(n):
            timeline.publish(f"post {i}".encode(), rng=rng)
        return timeline

    def test_memoised_hash_equals_fresh_recomputation(self, rng):
        for entry in self._timeline(rng).entries + [self.PINNED]:
            first = entry.entry_hash()
            assert entry._hash is first          # remembered ...
            assert entry.entry_hash() is first   # ... and served again
            assert first == reference_entry_hash(entry)
        assert self.PINNED.entry_hash().hex() == (
            "68be397add7c1e76a16f4192dd0afbfea8699bbc35dd8153e04e246a676fa411")

    @pytest.mark.parametrize("change", [
        {"payload": b"evil edit"}, {"signature": (17, 43)},
        {"previous": b"other"}, {"sequence": 4}, {"author": "eve"},
        {"citations": ()},
    ])
    def test_replace_starts_empty_and_rehashes(self, change):
        original = self.PINNED.entry_hash()
        tampered = dataclasses.replace(self.PINNED, **change)
        assert tampered._hash is None
        assert tampered.entry_hash() != original
        assert tampered.entry_hash() == reference_entry_hash(tampered)
        assert self.PINNED.entry_hash() == original

    def test_memo_is_not_a_constructor_argument(self):
        with pytest.raises(TypeError):
            hc.ChainEntry("bob", 0, hc.GENESIS, b"x", (), (0, 0), b"forged")
        with pytest.raises(TypeError):
            hc.ChainEntry("bob", 0, hc.GENESIS, b"x", (), (0, 0), None,
                          BOB.public_key)
        with pytest.raises(ValueError):
            dataclasses.replace(self.PINNED, _hash=b"forged")
        with pytest.raises(ValueError):
            dataclasses.replace(self.PINNED, _verified_under=BOB.public_key)

    def test_equality_hash_and_repr_ignore_the_memo(self):
        entry = self.PINNED
        fresh = dataclasses.replace(entry)
        entry.entry_hash()
        assert fresh._hash is None and entry == fresh
        assert hash(entry) == hash(fresh) == hash(
            (entry.author, entry.sequence, entry.previous, entry.payload,
             entry.citations, entry.signature))
        assert repr(entry) == repr(fresh) == (
            "ChainEntry(author='bob', sequence=3, previous=b'prev', "
            "payload=b'post 3', citations=(('alice', 1, b'h'),), "
            "signature=(17, 42))")

    def test_head_hash_is_the_last_entrys_memo(self, rng):
        timeline = self._timeline(rng)
        assert timeline.head_hash is timeline.entries[-1].entry_hash()
        view = hc.TimelineView("bob", BOB.public_key)
        assert view.head_hash == hc.GENESIS
        view.accept_all(timeline.entries)
        assert view.head_hash is timeline.head_hash
        for name in ("Timeline", "TimelineView"):   # tracing.py wraps these
            assert isinstance(vars(getattr(hc, name))["head_hash"], property)

    def test_accept_still_rejects_after_the_same_objects_were_hashed(
            self, rng):
        timeline = self._timeline(rng)
        entries = timeline.entries
        for entry in entries:
            entry.entry_hash()

        def view_at(n, author="bob", key=BOB.public_key):
            view = hc.TimelineView(author, key)
            view.accept_all(entries[:n])
            return view

        with pytest.raises(IntegrityError, match="chain break"):
            # entry 2 re-sequenced onto a view that holds only entry 0
            view_at(1).accept(dataclasses.replace(entries[2], sequence=1))
        with pytest.raises(IntegrityError, match="sequence gap"):
            view_at(3).accept(entries[1])                        # replay
        with pytest.raises(IntegrityError, match="authored by"):
            view_at(0, author="alice").accept(entries[0])        # foreign
        with pytest.raises(IntegrityError, match="signature"):
            view_at(0, key=MALLORY.public_key).accept(entries[0])
        forged = dataclasses.replace(
            entries[1], signature=(entries[1].signature[0],
                                   entries[1].signature[1] + 1))
        forged.entry_hash()
        with pytest.raises(IntegrityError, match="signature"):
            view_at(1).accept(forged)
        # a tampered middle entry: the *next* link no longer matches it
        view = view_at(1)
        view.entries.append(dataclasses.replace(entries[1], payload=b"evil"))
        with pytest.raises(IntegrityError, match="chain break"):
            view.accept(entries[2])

    def test_order_proof_over_hashed_entries_still_catches_tampering(
            self, rng):
        entries = self._timeline(rng, 5).entries
        for entry in entries:
            entry.entry_hash()
        assert hc.verify_order_proof(hc.order_proof(entries, 1, 4),
                                     BOB.public_key)
        tampered = list(entries)
        tampered[2] = dataclasses.replace(entries[2], payload=b"evil edit")
        assert not hc.verify_order_proof(hc.order_proof(tampered, 1, 4),
                                         BOB.public_key)
        resigned = list(entries)
        resigned[2] = hc.Timeline("bob", BOB).publish(b"x", rng=rng)
        assert not hc.verify_order_proof(hc.order_proof(resigned, 1, 4),
                                         BOB.public_key)


class TestEntryVerifyMemo:
    """An entry remembers the key it verified under: one check per
    (entry, key) across every follower's view, and never a remembered
    reject."""

    @staticmethod
    def oracle(entry, key):
        """What a never-verified copy of ``entry`` says under ``key``."""
        fresh = dataclasses.replace(entry)
        assert fresh._verified_under is None
        return ref.schnorr_verify(key, fresh.signed_bytes(), fresh.signature)

    def _entries(self, rng, n=4):
        timeline = hc.Timeline("bob", BOB)
        for i in range(n):
            timeline.publish(f"post {i}".encode(), rng=rng)
        return timeline.entries

    @pytest.mark.parametrize("field,value", [
        ("author", "eve"), ("sequence", 9), ("previous", b"other"),
        ("payload", b"evil edit"), ("citations", (("alice", 1, b"h"),)),
        ("signature", (0, 1)), ("signature", (1, 0)),    # off by one
    ])
    def test_a_replaced_field_is_verified_afresh(self, rng, verifies, field,
                                                 value):
        entry = self._entries(rng)[1]
        assert entry.verified_by(BOB.public_key)
        if field == "signature":
            value = tuple(a + b for a, b in zip(entry.signature, value))
        tampered = dataclasses.replace(entry, **{field: value})
        assert tampered._verified_under is None
        del verifies[:]
        assert tampered.verified_by(BOB.public_key) is False
        assert self.oracle(tampered, BOB.public_key) is False
        assert verifies == [BOB.public_key]
        assert entry._verified_under is BOB.public_key

    def test_keys_hit_on_equality_and_miss_on_anything_else(self, rng,
                                                            verifies):
        entries = self._entries(rng)
        entry = entries[0]
        bob = BOB.public_key
        twin = SchnorrPublicKey(bob.group, bob.y)          # equal, not same
        elsewhere = SchnorrPublicKey(group_for_level("TEST"), bob.y)
        assert twin is not bob and twin == bob and elsewhere != bob
        cases = [(bob, True, 1), (bob, True, 0), (twin, True, 0),
                 (MALLORY.public_key, False, 1), (elsewhere, False, 1),
                 (bob, True, 0)]
        for key, accepted, calls in cases:
            del verifies[:]
            assert entry.verified_by(key) is accepted, key
            assert self.oracle(entry, key) is accepted
            assert len(verifies) == calls, key
            assert entry._verified_under is bob      # a reject never lands
        for key, accepted, _ in cases:                # the same via a view
            view = hc.TimelineView("bob", key)
            if accepted:
                view.accept(entry)
            else:
                with pytest.raises(IntegrityError, match="signature"):
                    view.accept(entry)

    def test_a_second_follower_makes_no_verify_calls(self, rng, verifies):
        entries = self._entries(rng)
        hc.TimelineView("bob", BOB.public_key).accept_all(entries)
        assert len(verifies) == 1                 # the linked batch's newest
        del verifies[:]
        hc.TimelineView("bob", BOB.public_key).accept_all(entries)
        twin = SchnorrPublicKey(BOB.public_key.group, BOB.public_key.y)
        hc.TimelineView("bob", twin).accept_all(entries)
        assert verifies == []
        # the order-proof path checks through the same memo: the newest
        # hits it, the three the batch vouched for by hash are checked now
        assert hc.verify_order_proof(hc.order_proof(entries, 0, 3),
                                     BOB.public_key)
        assert len(verifies) == 3

    def test_an_order_proof_verifies_once_per_entry(self, rng, verifies):
        entries = self._entries(rng, 5)
        proof = hc.order_proof(entries, 1, 4)
        assert hc.verify_order_proof(proof, BOB.public_key)
        assert len(verifies) == 4
        assert hc.verify_order_proof(proof, BOB.public_key)
        assert not hc.verify_order_proof(proof, MALLORY.public_key)
        assert len(verifies) == 5
        hc.TimelineView("bob", BOB.public_key).accept_all(entries)
        assert len(verifies) == 5         # the newest, entry 4, was checked

    def test_a_rejected_entry_is_reverified_every_time(self, rng, verifies):
        entry = self._entries(rng)[0]
        e, s = entry.signature
        forged = dataclasses.replace(entry, signature=(e, s + 1))
        for attempt in range(1, 4):
            with pytest.raises(IntegrityError, match="signature"):
                hc.TimelineView("bob", BOB.public_key).accept(forged)
            assert forged.verified_by(BOB.public_key) is False
            assert len(verifies) == 2 * attempt
            assert forged._verified_under is None
        assert not entry.verified_by(MALLORY.public_key)
        assert not entry.verified_by(MALLORY.public_key)
        assert len(verifies) == 8

    def test_equality_hash_and_repr_ignore_the_memo(self, rng):
        entry = self._entries(rng)[0]
        fresh = dataclasses.replace(entry)
        assert entry.verified_by(BOB.public_key)
        assert entry._verified_under is BOB.public_key
        assert fresh._verified_under is None
        assert entry == fresh and hash(entry) == hash(fresh)
        assert repr(entry) == repr(fresh)
        assert "_verified_under" not in repr(entry)

    def test_the_memos_cost_no_per_entry_dict(self):
        entry = TestEntryHashMemo.PINNED
        assert not hasattr(entry, "__dict__")
        assert hc.ChainEntry.__slots__[-2:] == ("_hash", "_verified_under")
        assert hc.ChainEntry.__slots__[-3:] == (
            "_text", "_hash", "_verified_under")

    def test_the_decoded_payload_is_one_remembered_str(self, rng):
        entry = self._entries(rng)[0]
        fresh = dataclasses.replace(entry)
        text = entry.payload_text()
        assert text == "post 0" and entry.payload_text() is text
        assert fresh._text is None and fresh.payload_text() == text
        assert entry == fresh and repr(entry) == repr(fresh)
        assert "_text" not in repr(entry)
