"""What opening a friend's post costs, counted rather than timed.

PAPER.md §III-B picks friend-group symmetric encryption because it is the
cheap primitive, and §IV-B's FETHR chain links each entry to the hash of
the one before it.  So a read pays for the bytes it decrypts, not for a
key schedule per blob, and a sync of m new entries pays one signature
check, not m.
"""

from collections import Counter

import pytest

from repro.crypto.symmetric import StreamCipher
from repro.dosn import DosnConfig, DosnNetwork
from repro.exceptions import AccessDeniedError

NAMES = ("alice", "bob", "carol", "dave", "eve")


@pytest.fixture
def derivations(monkeypatch):
    """The key of every :class:`StreamCipher` built while the test runs."""
    keys = []
    original = StreamCipher.__init__

    def spy(cipher, key):
        keys.append(key)
        original(cipher, key)

    monkeypatch.setattr(StreamCipher, "__init__", spy)
    return keys


def _ring_of_friends():
    net = DosnNetwork(config=DosnConfig(architecture="dht", seed=5))
    for name in NAMES:
        net.add_user(name)
    for a, b in zip(NAMES, NAMES[1:] + NAMES[:1]):
        net.befriend(a, b)
    return net


class TestOneCipherPerGroupKey:
    def test_posts_and_reads_derive_each_group_key_once(self, derivations):
        net = _ring_of_friends()
        cids = {name: [net.post(name, f"{name} #{i}") for i in range(4)]
                for name in NAMES}
        for round_ in range(3):
            for reader, author in zip(NAMES, NAMES[1:] + NAMES[:1]):
                for cid in cids[author]:
                    assert net.read(reader, author, cid).post.author == author
                assert net.feed(reader).clean
            for name in NAMES:
                net.post(name, f"{name} again #{round_}")
        group_keys = {net.users[name].group_key for name in NAMES}
        assert set(derivations) == group_keys
        assert Counter(derivations).most_common(1)[0][1] == 1

    def test_friends_hold_the_authors_cipher_by_reference(self):
        net = _ring_of_friends()
        alice = net.users["alice"]
        for friend in ("bob", "eve"):
            assert net.users[friend].friend_keys["alice"] is alice.group_cipher
        assert "alice" not in net.users["carol"].friend_keys

    def test_deleting_a_friend_key_still_revokes(self, derivations):
        net = _ring_of_friends()
        cid = net.post("alice", "before")
        assert net.read("bob", "alice", cid).post.text == "before"
        del net.users["bob"].friend_keys["alice"]
        blob = net.storage.fetch_blob("bob", cid).blob
        with pytest.raises(AccessDeniedError, match="holds no group key"):
            net.users["bob"].unlock("alice", blob)
        assert not net.feed("bob").clean
        assert len(derivations) == len(set(derivations))


class TestOneVerifyPerSyncedBatch:
    @pytest.mark.parametrize("m", [2, 5, 9])
    def test_a_batch_of_m_new_entries_costs_one_verify(self, verifies, m):
        net = _ring_of_friends()
        alice, bob = net.users["alice"], net.users["bob"]
        for i in range(m):
            net.post("alice", f"post {i}")
        del verifies[:]
        assert bob.sync_timeline(alice) == m
        assert len(verifies) == 1
        assert len(bob.views["alice"].entries) == m
        # a second follower shares the newest entry's memo
        assert net.users["eve"].sync_timeline(alice) == m
        assert len(verifies) == 1
        assert bob.sync_timeline(alice) == 0
        net.post("alice", "one more")
        assert bob.sync_timeline(alice) == 1
        assert len(verifies) == 2
