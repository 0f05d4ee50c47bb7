"""Tests for the from-scratch SHA-256 and the hashing utilities."""

import hashlib
import hmac as stdlib_hmac

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto import hashing
from repro.crypto.sha256 import SHA256, sha256
from repro.exceptions import CryptoError


class TestSHA256KnownAnswers:
    """FIPS 180-4 known-answer vectors."""

    VECTORS = [
        (b"", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
        (b"abc", "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"),
        (b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
         "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"),
        (b"a" * 1_000_000,
         "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"),
    ]

    @pytest.mark.parametrize("message,expected", VECTORS)
    def test_fips_vectors(self, message, expected):
        assert sha256(message).hex() == expected

    @given(st.binary(max_size=300))
    @settings(max_examples=100, deadline=None)
    def test_matches_hashlib(self, data):
        assert sha256(data) == hashlib.sha256(data).digest()

    def test_streaming_equivalent_to_oneshot(self):
        h = SHA256()
        for chunk in (b"hello ", b"", b"world", b"!" * 100):
            h.update(chunk)
        assert h.digest() == sha256(b"hello world" + b"!" * 100)

    def test_digest_does_not_finalize(self):
        h = SHA256(b"part1")
        first = h.digest()
        assert first == h.digest()  # idempotent
        h.update(b"part2")
        assert h.digest() == sha256(b"part1part2")

    def test_copy_is_independent(self):
        h = SHA256(b"base")
        clone = h.copy()
        clone.update(b"more")
        assert h.digest() == sha256(b"base")
        assert clone.digest() == sha256(b"basemore")

    def test_boundary_lengths(self):
        # Padding edge cases around the 55/56/64-byte boundaries.
        for n in (54, 55, 56, 57, 63, 64, 65, 119, 120):
            data = bytes(range(256))[:n] * 1
            assert sha256(data) == hashlib.sha256(data).digest()


class TestHMACAndHKDF:
    @given(st.binary(min_size=1, max_size=64), st.binary(max_size=128))
    @settings(max_examples=50, deadline=None)
    def test_hmac_matches_stdlib(self, key, msg):
        assert hashing.hmac_sha256(key, msg) == stdlib_hmac.new(
            key, msg, hashlib.sha256).digest()

    def test_hmac_verify(self):
        tag = hashing.hmac_sha256(b"k" * 16, b"msg")
        assert hashing.hmac_verify(b"k" * 16, b"msg", tag)
        assert not hashing.hmac_verify(b"k" * 16, b"msg2", tag)
        assert not hashing.hmac_verify(b"x" * 16, b"msg", tag)

    def test_hkdf_lengths(self):
        for length in (1, 16, 32, 33, 64, 100):
            out = hashing.hkdf(b"ikm", length, salt=b"salt", info=b"info")
            assert len(out) == length

    def test_hkdf_expand_prefix_property(self):
        short = hashing.hkdf(b"ikm", 16, info=b"ctx")
        long = hashing.hkdf(b"ikm", 64, info=b"ctx")
        assert long[:16] == short

    def test_hkdf_domain_separation(self):
        assert hashing.hkdf(b"ikm", 32, info=b"a") != \
            hashing.hkdf(b"ikm", 32, info=b"b")

    def test_hkdf_too_long(self):
        with pytest.raises(CryptoError):
            hashing.hkdf(b"ikm", 255 * 32 + 1)


class TestHashToField:
    def test_in_range(self):
        for modulus in (2, 17, 2**64, 2**255 - 19):
            value = hashing.hash_to_int(b"data", modulus)
            assert 0 <= value < modulus

    def test_domain_separation(self):
        assert hashing.hash_to_int(b"x", 2**128, b"d1") != \
            hashing.hash_to_int(b"x", 2**128, b"d2")

    def test_rejects_degenerate_modulus(self):
        with pytest.raises(CryptoError):
            hashing.hash_to_int(b"x", 1)

    def test_roughly_uniform(self):
        # Chi-square-lite: buckets of hash_to_int over a small modulus.
        counts = [0] * 8
        for i in range(800):
            counts[hashing.hash_to_int(str(i).encode(), 8)] += 1
        assert all(60 < c < 140 for c in counts), counts


class TestFraming:
    def test_digest_many_is_injective_on_structure(self):
        assert hashing.digest_many([b"ab", b"c"]) != \
            hashing.digest_many([b"a", b"bc"])
        assert hashing.digest_many([b"abc"]) != \
            hashing.digest_many([b"abc", b""])
