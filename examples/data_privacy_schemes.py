#!/usr/bin/env python3
"""Section III's data-privacy rows, each doing the thing it is known for.

Experiments E2 and E3 price the five group schemes on one workload; this
script shows what sets each row (and two of its ancestors) apart:

* symmetric keys     — revocation re-encrypts, yet a key a revoked friend
                       kept still opens the copies they already had;
* attribute-based    — one encryption under a policy *is* the group;
* broadcast          — IBBE's ancestor: a per-recipient header against
                       complete-subtree revocation;
* identity-based     — a Private Key Generator turns names into keys;
* proxy re-encryption — flyByNight's provider re-targets one upload per
                       friend and never sees the plaintext (Section II).

Run:  python examples/data_privacy_schemes.py
"""

import random

from repro.acl import ABEACL, SymmetricKeyACL
from repro.acl.flybynight import FlyByNightServer, FlyByNightUser
from repro.crypto import ibe
from repro.crypto.broadcast import CompleteSubtreeBE, NaiveBroadcast
from repro.crypto.symmetric import AuthenticatedCipher
from repro.exceptions import AccessDeniedError, DecryptionError

rng = random.Random(303)


def attempt(label, fn):
    try:
        print(f"  {label}: {fn()!r}")
    except (AccessDeniedError, DecryptionError) as exc:
        print(f"  {label}: {type(exc).__name__}")


def symmetric() -> None:
    print("== Symmetric keys: 'if someone already decrypted the data and "
          "kept a copy, we cannot revoke that' ==")
    scheme = SymmetricKeyACL(rng=rng)
    scheme.create_group("friends", ["alice", "bob", "carol"])
    scheme.publish("friends", "photo", b"beach photo")
    kept_key = scheme.leaked_key("friends", 0)
    kept_copy = scheme.groups["friends"].items["photo"].blob
    scheme.revoke_member("friends", "bob")
    attempt("bob reads after revocation",
            lambda: scheme.read("friends", "photo", "bob"))
    attempt("bob opens the copy he kept, with the key he kept",
            lambda: AuthenticatedCipher(kept_key).decrypt(kept_copy))


def attribute_based() -> None:
    print("\n== Attribute-based: a single encryption constructs the group ==")
    scheme = ABEACL(rng=rng)
    scheme.create_group("wall", ["mum", "dad", "boss"])
    scheme.grant_attribute("mum", "family")
    scheme.grant_attribute("dad", "family")
    scheme.grant_attribute("boss", "work")
    scheme.publish_with_policy("wall", "holiday", b"holiday photos",
                               "family")
    for reader in ("mum", "boss"):
        attempt(f"{reader} reads the 'family' post",
                lambda: scheme.read("wall", "holiday", reader))
    scheme.strip_attribute("dad", "family")
    attempt("dad, once 'family' is stripped from his key",
            lambda: scheme.read("wall", "holiday", "dad"))


def broadcast() -> None:
    print("\n== Broadcast encryption: header size against revocations ==")
    users, revoked = 64, [3, 17]
    naive = NaiveBroadcast()
    pairwise = {f"u{i}": naive.register(f"u{i}", rng) for i in range(users)}
    audience = [f"u{i}" for i in range(users) if i not in revoked]
    wraps, payload = naive.encrypt(audience, b"party at eight", rng)
    subtree = CompleteSubtreeBE(users, rng)
    cover, cover_payload = subtree.encrypt(revoked, b"party at eight", rng)
    print(f"  {users} users, {len(revoked)} revoked: naive header "
          f"{len(wraps)} key wraps, complete subtree {len(cover)}")
    attempt("u5 via its pairwise key",
            lambda: NaiveBroadcast.decrypt(pairwise["u5"], wraps["u5"],
                                           payload))
    attempt("u5 via its root-path keys",
            lambda: CompleteSubtreeBE.decrypt(subtree.user_keys(5), cover,
                                              cover_payload))
    attempt("u3 (revoked) via its root-path keys",
            lambda: CompleteSubtreeBE.decrypt(subtree.user_keys(3), cover,
                                              cover_payload))


def identity_based() -> None:
    print("\n== Identity-based: the address is the public key ==")
    pkg = ibe.PrivateKeyGenerator("TOY", rng)
    letter = ibe.encrypt(pkg.params, "alice@dosn", b"hi alice", rng)
    attempt("alice's extracted key",
            lambda: ibe.decrypt(pkg.params, pkg.extract("alice@dosn"),
                                letter))
    attempt("mallory's extracted key",
            lambda: ibe.decrypt(pkg.params, pkg.extract("mallory@dosn"),
                                letter))
    print("  (the PKG extracts every key: the escrow IBBE inherits)")


def flybynight() -> None:
    print("\n== flyByNight: the provider re-encrypts, never decrypts ==")
    server = FlyByNightServer()
    alice, bob, eve = (FlyByNightUser(name, rng=rng)
                       for name in ("alice", "bob", "eve"))
    alice.friend(bob, server)
    message = alice.post(server, "meet at the library")
    attempt("bob (re-encryption key deposited)",
            lambda: bob.read(server, message))
    attempt("eve (no re-encryption key)", lambda: eve.read(server, message))
    print(f"  the provider sees the friend edges "
          f"{server.provider_view()['edges']} and one ciphertext")


if __name__ == "__main__":
    symmetric()
    attribute_based()
    broadcast()
    identity_based()
    flybynight()
