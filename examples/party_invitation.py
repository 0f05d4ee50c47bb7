#!/usr/bin/env python3
"""The paper's Section IV scenario, attack by attack.

"Assume that Bob is organizing a party and wants to invite his friends.
Alice receives an invitation letter in a packet from Bob, containing this
message: 'Come to my party held at my home on Friday'."

This script plays out every integrity aspect the paper enumerates — owner,
content, history, and relations — showing the attack first and then the
mechanism that defeats it.

Run:  python examples/party_invitation.py
"""

import dataclasses
import random

from repro.crypto.signatures import generate_schnorr_keypair
from repro.crypto.symmetric import random_key
from repro.exceptions import AccessDeniedError, IntegrityError
from repro.integrity import (EntanglementGraph, Timeline, TimelineView,
                             cite, create_post, open_envelope, seal,
                             verify_comment, write_comment)

rng = random.Random(2026)


def show(label, fn):
    try:
        fn()
        print(f"  {label}: accepted")
    except (IntegrityError, AccessDeniedError) as exc:
        print(f"  {label}: REJECTED — {exc}")


def main() -> None:
    bob = generate_schnorr_keypair("TOY", rng)
    mallory = generate_schnorr_keypair("TOY", rng)

    print("== Integrity of the data owner and the data content ==")
    letter = seal(bob, "bob", b"Come to my party held at my home on Friday",
                  issued_at=100.0, recipient="alice", expires_at=500.0,
                  sequence=0, rng=rng)
    show("genuine invitation",
         lambda: open_envelope(letter, bob.public_key, "alice", now=200.0))
    forged = seal(mallory, "bob", b"Party is cancelled", issued_at=100.0,
                  recipient="alice", rng=rng)
    show("Mallory forging Bob's name",
         lambda: open_envelope(forged, bob.public_key, "alice", now=200.0))
    tampered = dataclasses.replace(
        letter, body=b"Come to my party held at MALLORY'S on Friday")
    show("venue rewritten in transit",
         lambda: open_envelope(tampered, bob.public_key, "alice", now=200.0))

    print("\n== Integrity of data history ==")
    show("invitation presented after the party",
         lambda: open_envelope(letter, bob.public_key, "alice", now=9000.0))

    print("Bob's timeline is hash-chained; suppressing a post is visible:")
    timeline = Timeline("bob", bob)
    for text in (b"invitations sent", b"party moved to 8pm",
                 b"party is BYOB"):
        timeline.publish(text, rng=rng)
    view = TimelineView("bob", bob.public_key)
    censored = [timeline.entries[0], timeline.entries[2]]  # drop the move!
    show("provider hides 'party moved to 8pm'",
         lambda: view.accept_all(censored))
    honest_view = TimelineView("bob", bob.public_key)
    show("full honest timeline",
         lambda: honest_view.accept_all(timeline.entries))

    print("Alice's RSVP cites the move, entangling the two timelines:")
    alice = Timeline("alice", generate_schnorr_keypair("TOY", rng))
    alice.publish(b"see you at 8!", citations=[cite(timeline.entries[1])],
                  rng=rng)
    entangled = EntanglementGraph()
    entangled.add_timeline(timeline.entries)
    entangled.add_timeline(alice.entries)
    print(f"  forged citations: {entangled.verify_citations() or 'none'}; "
          "the move provably precedes the RSVP: "
          f"{entangled.happened_before(('bob', 1), ('alice', 0))}")

    print("\n== Integrity of the data relations ==")
    to_carol = seal(bob, "bob", b"Carol, bring the cake!", issued_at=100.0,
                    recipient="carol", rng=rng)
    show("Carol's letter replayed at Alice",
         lambda: open_envelope(to_carol, bob.public_key, "alice", now=200.0))

    print("Per-post comment keys (Cachet): only invitees can RSVP:")
    invitee_keys = {"alice": random_key(32, rng)}
    post = create_post("party-post", "bob", b"Party on Friday!",
                       invitee_keys, rng=rng)
    rsvp = write_comment(post, "alice", invitee_keys["alice"],
                         b"I'll be there!", rng=rng)
    show("Alice's RSVP", lambda: verify_comment(post, rsvp))
    show("Eve crashing the comment thread",
         lambda: write_comment(post, "eve", random_key(32, rng), b"me too",
                               rng=rng))
    moved = dataclasses.replace(rsvp, body=b"I am NOT coming")
    show("Alice's RSVP reworded by the storage node",
         lambda: verify_comment(post, moved))


if __name__ == "__main__":
    main()
