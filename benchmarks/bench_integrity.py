"""Experiment E4 — integrity mechanism costs and guarantees.

Paper claims reproduced (Section IV):

* digital signatures are the universal primitive ("commonly used methods to
  protect data integrity are based on digital signatures") — we measure
  sign/verify latency as the base cost every other mechanism inherits;
* hash-chained timelines give provable partial order with O(j - i) proofs;
* the object history tree authenticates any single operation in O(log n)
  — against the naive alternative of shipping the whole log, O(n);
* fork consistency detects a forking provider as soon as views cross.
"""

from __future__ import annotations

import dataclasses
import random

import pytest

from _reporting import report_table
from repro.crypto.merkle import verify_inclusion
from repro.crypto.signatures import generate_schnorr_keypair
from repro.integrity import (FortClient, ForkingServer, HistoryServer,
                             ObjectHistory, Operation, Timeline,
                             TimelineView, order_proof, seal, open_envelope,
                             verify_order_proof)

RNG = random.Random(0xE4)
KEY = generate_schnorr_keypair("TOY", RNG)
SERVER_KEY = generate_schnorr_keypair("TOY", RNG)


def test_envelope_seal(benchmark):
    """Base cost: signing one message envelope."""
    benchmark.pedantic(
        lambda: seal(KEY, "bob", b"party on friday", issued_at=1.0,
                     recipient="alice", rng=RNG),
        rounds=20, iterations=1)


def test_envelope_open(benchmark):
    """Base cost: verifying owner/content/relation/expiry in one check."""
    envelope = seal(KEY, "bob", b"party on friday", issued_at=1.0,
                    recipient="alice", expires_at=10.0, rng=RNG)
    benchmark.pedantic(
        lambda: open_envelope(envelope, KEY.public_key, "alice", now=5.0),
        rounds=20, iterations=1)


def test_timeline_publish(benchmark):
    """Appending a signed, chained entry."""
    timeline = Timeline("bob", KEY)
    benchmark.pedantic(lambda: timeline.publish(b"post", rng=RNG),
                       rounds=20, iterations=1)


def test_timeline_verify_100(benchmark):
    """Verifying a 100-entry chain (what a follower pays on first sync:
    100 hash links and one signature, the newest entry's, which vouches
    for the rest through them).

    Each round accepts fresh copies of the entries: an entry remembers the
    key it verified under, so re-accepting the same objects would time
    that memo, not a first sync.
    """
    timeline = Timeline("bob", KEY)
    for i in range(100):
        timeline.publish(f"post{i}".encode(), rng=RNG)

    def fresh_entries():
        return ([dataclasses.replace(e) for e in timeline.entries],), {}

    def verify(entries):
        view = TimelineView("bob", KEY.public_key)
        view.accept_all(entries)

    benchmark.pedantic(verify, setup=fresh_entries, rounds=3, iterations=1)


def test_order_proof_sizes(benchmark):
    """E4 table: proof sizes — chain segments vs history-tree membership."""

    def measure():
        rows = []
        for n in (16, 128, 1024):
            timeline = Timeline("bob", KEY)
            for i in range(n):
                timeline.publish(b"p", rng=RNG)
            chain_proof = order_proof(timeline.entries, 0, n - 1)
            assert verify_order_proof(chain_proof, KEY.public_key)

            history = ObjectHistory("wall")
            for i in range(n):
                history.append(Operation(client="c", payload=b"p",
                                         seen_version=i, seen_root=b""))
            tree_proof = history.prove_operation(n // 2)
            op = history.operations[n // 2]
            assert verify_inclusion(op.encode(), tree_proof, history.root)
            rows.append((n, len(chain_proof.segment),
                         len(tree_proof.siblings), n))
        return rows

    rows = benchmark.pedantic(measure, rounds=1, iterations=1)
    # history-tree proofs are logarithmic, chain/naive proofs linear
    assert rows[-1][2] == 10          # log2(1024)
    assert rows[-1][1] == 1024        # full segment
    report_table(
        "E4_proofs",
        "E4 — integrity proof sizes vs log length",
        ["Entries", "Chain order-proof (entries)",
         "History-tree proof (hashes)", "Naive full log (entries)"],
        rows,
        note=("History trees authenticate any operation in O(log n); hash "
              "chains pay O(j-i) for order proofs; the naive design ships "
              "the whole log."))


def test_fork_detection_rate(benchmark):
    """E4b: the fork is detected the moment views cross, every time."""

    def run_attacks():
        detected = 0
        trials = 20
        for trial in range(trials):
            rng = random.Random(trial)
            server = ForkingServer(SERVER_KEY, fork_members=["victim"],
                                   rng=rng)
            main = FortClient("main", "wall", SERVER_KEY.public_key)
            victim = FortClient("victim", "wall", SERVER_KEY.public_key)
            for i in range(3):
                server.submit("wall", main.make_operation(b"m"))
                ops, signed = server.fetch_as("wall", "main", main.version)
                assert main.sync(ops, signed) is None
                server.submit("wall", victim.make_operation(b"v"))
                ops, signed = server.fetch_as("wall", "victim",
                                              victim.version)
                assert victim.sync(ops, signed) is None
            if main.compare_views(victim) is not None:
                detected += 1
        return detected, trials

    detected, trials = benchmark.pedantic(run_attacks, rounds=1,
                                          iterations=1)
    assert detected == trials
    report_table(
        "E4b_fork", "E4b — fork-consistency detection",
        ["Equivocation attacks", "Detected on first view exchange"],
        [(trials, detected)],
        note=("Every forking-provider attack is caught as soon as two "
              "clients on different sides of the fork compare views, "
              "matching Frientegrity's guarantee."))


def test_honest_server_false_positive_rate(benchmark):
    """No false accusations against an honest provider."""

    def run():
        accusations = 0
        server = HistoryServer(SERVER_KEY, RNG)
        clients = [FortClient(f"c{i}", "wall", SERVER_KEY.public_key)
                   for i in range(4)]
        for round_number in range(10):
            for client in clients:
                ops, signed = server.fetch("wall", client.version)
                if client.sync(ops, signed) is not None:
                    accusations += 1
                server.submit("wall",
                              client.make_operation(b"payload"))
        for a in clients:
            for b in clients:
                if a.compare_views(b) is not None:
                    accusations += 1
        return accusations

    accusations = benchmark.pedantic(run, rounds=1, iterations=1)
    assert accusations == 0
