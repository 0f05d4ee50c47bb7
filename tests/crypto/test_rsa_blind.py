"""Tests for RSA (OAEP + FDH signatures) and Chaum blind signatures."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto import blind, rsa
from repro.exceptions import CryptoError, DecryptionError, SignatureError

KEY = rsa.generate_keypair(512, rng=random.Random(0x5EED))
KEY2 = rsa.generate_keypair(512, rng=random.Random(0xFEED))


class TestKeygen:
    def test_key_structure(self):
        assert KEY.n == KEY.p * KEY.q
        assert KEY.e * KEY.d % ((KEY.p - 1) * (KEY.q - 1)) == 1
        assert KEY.n.bit_length() >= 512

    def test_rejects_tiny_modulus(self):
        with pytest.raises(Exception):
            rsa.generate_keypair(64)

    def test_crt_power_matches_plain_power(self):
        c = 0x1234567890ABCDEF
        assert KEY._crt_power(c) == pow(c, KEY.d, KEY.n)


class TestEncryption:
    @given(st.binary(max_size=30))
    @settings(max_examples=25, deadline=None)
    def test_roundtrip(self, message):
        rng = random.Random(len(message))
        ct = rsa.encrypt(KEY.public_key, message, rng)
        assert rsa.decrypt(KEY, ct) == message

    def test_max_length_boundary(self):
        limit = rsa.max_plaintext_length(KEY.public_key)
        rng = random.Random(3)
        ct = rsa.encrypt(KEY.public_key, b"x" * limit, rng)
        assert rsa.decrypt(KEY, ct) == b"x" * limit
        with pytest.raises(CryptoError):
            rsa.encrypt(KEY.public_key, b"x" * (limit + 1), rng)

    def test_probabilistic(self):
        rng = random.Random(4)
        assert rsa.encrypt(KEY.public_key, b"m", rng) != \
            rsa.encrypt(KEY.public_key, b"m", rng)

    def test_wrong_key_fails(self):
        ct = rsa.encrypt(KEY.public_key, b"secret", random.Random(5))
        with pytest.raises(DecryptionError):
            rsa.decrypt(KEY2, ct)

    def test_tampered_ciphertext_fails(self):
        ct = bytearray(rsa.encrypt(KEY.public_key, b"secret",
                                   random.Random(6)))
        ct[10] ^= 0x01
        with pytest.raises(DecryptionError):
            rsa.decrypt(KEY, bytes(ct))

    def test_wrong_length_rejected(self):
        with pytest.raises(DecryptionError):
            rsa.decrypt(KEY, b"\x00" * 10)


class TestSignatures:
    @given(st.binary(max_size=200))
    @settings(max_examples=25, deadline=None)
    def test_sign_verify(self, message):
        sig = rsa.sign(KEY, message)
        assert rsa.verify(KEY.public_key, message, sig)

    def test_modified_message_fails(self):
        sig = rsa.sign(KEY, b"original")
        assert not rsa.verify(KEY.public_key, b"altered", sig)

    def test_wrong_key_fails(self):
        sig = rsa.sign(KEY, b"m")
        assert not rsa.verify(KEY2.public_key, b"m", sig)

    def test_garbage_signature_fails(self):
        assert not rsa.verify(KEY.public_key, b"m", b"\xFF" * 64)
        assert not rsa.verify(KEY.public_key, b"m", b"short")


class TestBlindSignatures:
    def test_blind_equals_direct(self, rng):
        ctx = blind.blind(KEY.public_key, b"#keyword", rng)
        sig = ctx.unblind(blind.sign_blinded(KEY, ctx.blinded))
        assert sig == blind.sign_directly(KEY, b"#keyword")
        assert blind.verify(KEY.public_key, b"#keyword", sig)

    def test_blindness(self, rng):
        """Different blindings of the same message are unlinkable values."""
        c1 = blind.blind(KEY.public_key, b"#same", rng)
        c2 = blind.blind(KEY.public_key, b"#same", rng)
        assert c1.blinded != c2.blinded
        # but both unblind to the same signature
        s1 = c1.unblind(blind.sign_blinded(KEY, c1.blinded))
        s2 = c2.unblind(blind.sign_blinded(KEY, c2.blinded))
        assert s1 == s2

    def test_unblind_checks_signature(self, rng):
        ctx = blind.blind(KEY.public_key, b"#kw", rng)
        with pytest.raises(SignatureError):
            ctx.unblind(12345)  # not a signature on the blinded value

    def test_signer_range_check(self):
        with pytest.raises(SignatureError):
            blind.sign_blinded(KEY, KEY.n + 1)

    def test_cross_message_verify_fails(self, rng):
        ctx = blind.blind(KEY.public_key, b"#a", rng)
        sig = ctx.unblind(blind.sign_blinded(KEY, ctx.blinded))
        assert not blind.verify(KEY.public_key, b"#b", sig)
