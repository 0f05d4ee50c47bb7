"""Tests for Schnorr groups, ElGamal, Schnorr signatures, the OPRF, ZKP."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto import elgamal, prf, zkp
from repro.crypto import signatures as sigs
from repro.crypto.groups import (SchnorrGroup, group_for_level,
                                 schnorr_group)
from repro.crypto.numbertheory import is_probable_prime
from repro.exceptions import CryptoError, DecryptionError, InvalidKeyError

GROUP = schnorr_group(256)


class TestSchnorrGroup:
    def test_parameters_are_sound(self):
        assert is_probable_prime(GROUP.p)
        assert is_probable_prime(GROUP.q)
        assert GROUP.p == 2 * GROUP.q + 1
        assert GROUP.contains(GROUP.g)

    def test_generator_has_order_q(self):
        assert pow(GROUP.g, GROUP.q, GROUP.p) == 1
        assert GROUP.g != 1

    def test_element_from_int_lands_in_subgroup(self):
        for value in (0, 1, 2, 12345, GROUP.p - 1):
            assert GROUP.contains(GROUP.element_from_int(value))

    def test_hash_to_element_in_subgroup(self):
        for i in range(20):
            assert GROUP.contains(GROUP.hash_to_element(str(i).encode()))

    def test_hash_to_scalar_nonzero(self):
        for i in range(50):
            s = GROUP.hash_to_scalar(str(i).encode())
            assert 1 <= s < GROUP.q

    def test_inverse(self):
        x = GROUP.hash_to_element(b"e")
        assert GROUP.mul(x, GROUP.inverse(x)) == 1

    def test_contains_rejects_outside(self):
        assert not GROUP.contains(0)
        assert not GROUP.contains(GROUP.p)
        # An element of order 2q (a non-residue) is rejected.
        non_residue = GROUP.p - 1  # (-1) is a non-residue when p = 3 mod 4
        if pow(non_residue, GROUP.q, GROUP.p) != 1:
            assert not GROUP.contains(non_residue)

    def test_levels(self):
        assert group_for_level("TOY").p.bit_length() == 256
        assert group_for_level("TEST").p.bit_length() == 512
        with pytest.raises(CryptoError):
            group_for_level("NOPE")

    def test_group_cache(self):
        assert schnorr_group(256) is schnorr_group(256)

    @pytest.mark.parametrize("level", ["TOY", "TEST"])
    def test_exp_is_the_plain_modexp(self, level):
        group = group_for_level(level)
        q = group.q
        rng = random.Random(14)
        exponents = [0, 1, q - 1, q, q + 1, -1, -q - 7, 2 ** 300, 15, 16,
                     16 ** 5] + [rng.randrange(q) for _ in range(50)]
        for e in exponents:
            assert group.exp(e) == pow(group.g, e % q, group.p) \
                == group.power(group.g, e)

    def test_exp_on_a_one_digit_group(self):
        tiny = SchnorrGroup(p=23)  # q = 11: every exponent is one window
        assert [tiny.exp(e) for e in range(-3, 25)] == [
            pow(tiny.g, e % 11, 23) for e in range(-3, 25)]

    def test_generator_tables_are_per_group_and_not_identity(self):
        toy, test = group_for_level("TOY"), group_for_level("TEST")
        fresh = SchnorrGroup(p=toy.p)
        assert fresh == toy and hash(fresh) == hash(toy)
        assert "windows" not in repr(fresh)
        toy.exp(5), test.exp(5), fresh.exp(5)
        assert toy._g_windows is not test._g_windows
        assert toy._g_windows is not fresh._g_windows
        assert toy._g_windows == fresh._g_windows != test._g_windows
        assert len(toy._g_windows) == 16 * ((toy.q.bit_length() + 3) // 4)
        assert fresh == toy and hash(fresh) == hash(toy)

    @pytest.mark.parametrize("level", ["TOY", "TEST"])
    def test_inverse_agrees_with_fermat(self, level):
        group = group_for_level(level)
        rng = random.Random(15)
        values = [0, 1, group.p - 1, group.p, group.p + 5, -3] + [
            rng.randrange(group.p) for _ in range(50)]
        for a in values:
            assert group.inverse(a) == pow(a, group.p - 2, group.p)


class TestElGamal:
    KEY = elgamal.generate_keypair("TOY", random.Random(1))

    def test_element_roundtrip(self, rng):
        m = GROUP.element_from_int(987654321)
        ct = elgamal.encrypt_element(self.KEY.public_key, m, rng)
        assert elgamal.decrypt_element(self.KEY, ct) == m

    def test_rejects_non_subgroup_message(self, rng):
        with pytest.raises(InvalidKeyError):
            elgamal.encrypt_element(self.KEY.public_key, GROUP.p - 1, rng)

    @given(st.binary(max_size=300))
    @settings(max_examples=20, deadline=None)
    def test_bytes_roundtrip(self, message):
        rng = random.Random(len(message))
        ct = elgamal.encrypt_bytes(self.KEY.public_key, message, rng)
        assert elgamal.decrypt_bytes(self.KEY, ct) == message

    def test_bytes_tamper_detected(self, rng):
        ct = bytearray(elgamal.encrypt_bytes(self.KEY.public_key, b"m", rng))
        ct[-1] ^= 1
        with pytest.raises(DecryptionError):
            elgamal.decrypt_bytes(self.KEY, bytes(ct))

    def test_bytes_truncation_detected(self):
        with pytest.raises(DecryptionError):
            elgamal.decrypt_bytes(self.KEY, b"\x00")

    def test_decrypt_validates_subgroup(self):
        with pytest.raises(DecryptionError):
            elgamal.decrypt_element(self.KEY, (GROUP.p - 1, 4))


class TestSchnorrAndDSASignatures:
    @given(st.binary(max_size=100))
    @settings(max_examples=20, deadline=None)
    def test_schnorr_roundtrip(self, message):
        rng = random.Random(len(message))
        key = sigs.generate_schnorr_keypair("TOY", rng)
        assert key.public_key.verify(message, key.sign(message, rng))

    def test_schnorr_rejects_modified(self, rng):
        key = sigs.generate_schnorr_keypair("TOY", rng)
        sig = key.sign(b"original", rng)
        assert not key.public_key.verify(b"altered", sig)

    def test_schnorr_rejects_wrong_key(self, rng):
        k1 = sigs.generate_schnorr_keypair("TOY", rng)
        k2 = sigs.generate_schnorr_keypair("TOY", rng)
        assert not k2.public_key.verify(b"m", k1.sign(b"m", rng))

    def test_schnorr_rejects_out_of_range(self, rng):
        key = sigs.generate_schnorr_keypair("TOY", rng)
        assert not key.public_key.verify(b"m", (key.group.q, 0))

    def test_schnorr_rejects_tampered_challenge_or_response(self, rng):
        key = sigs.generate_schnorr_keypair("TOY", rng)
        q = key.group.q
        e, s = key.sign(b"m", rng)
        assert key.public_key.verify(b"m", (e, s))
        for forged in (((e + 1) % q, s), (e, (s + 1) % q), (s, e),
                       (e, s + q), (e - q, s), (0, 0)):
            assert not key.public_key.verify(b"m", forged)

    def test_schnorr_signature_is_the_textbook_one(self, rng):
        """``sign`` binds the memoised ``g^x``: same ``(e, s)`` as the
        definition computed from scratch with the same nonce."""
        key = sigs.generate_schnorr_keypair("TOY", rng)
        group = key.group
        e, s = key.sign(b"m", random.Random(3))
        k = group.random_scalar(random.Random(3))
        y = pow(group.g, key.x, group.p)
        assert key.public_key.y == y
        assert e == sigs._challenge(group, pow(group.g, k, group.p), y, b"m")
        assert s == (k + e * key.x) % group.q

    def test_public_key_is_derived_once(self, rng):
        key = sigs.generate_schnorr_keypair("TOY", rng)
        assert key.public_key is key.public_key
        assert key.public_key.y == pow(key.group.g, key.x, key.group.p)
        assert key == type(key)(group=key.group, x=key.x)
        assert isinstance(vars(type(key))["public_key"], property)


class TestPRFAndOPRF:
    def test_oprf_matches_local_evaluation(self, rng):
        key = prf.generate_oprf_key("TOY", rng)
        for value in (b"", b"tag", b"another value", bytes(100)):
            request = prf.blind_request(value, "TOY", rng)
            evaluated = prf.evaluate_blinded(key, request.blinded)
            assert request.finalize(evaluated) == \
                prf.evaluate_locally(key, value)

    def test_oprf_blinding_hides_input(self, rng):
        """The sender sees unrelated group elements for equal inputs."""
        key = prf.generate_oprf_key("TOY", rng)
        r1 = prf.blind_request(b"same", "TOY", rng)
        r2 = prf.blind_request(b"same", "TOY", rng)
        assert r1.blinded != r2.blinded

    def test_oprf_validates_subgroup(self, rng):
        key = prf.generate_oprf_key("TOY", rng)
        with pytest.raises(CryptoError):
            prf.evaluate_blinded(key, key.group.p - 1)
        request = prf.blind_request(b"v", "TOY", rng)
        with pytest.raises(CryptoError):
            request.finalize(key.group.p - 1)


class TestZKP:
    def test_nizk_roundtrip_and_context_binding(self, rng):
        x = GROUP.random_scalar(rng)
        proof = zkp.prove_dlog_nizk(GROUP, x, b"session-42", rng)
        assert zkp.verify_dlog_nizk(GROUP, GROUP.exp(x), proof,
                                    b"session-42")
        assert not zkp.verify_dlog_nizk(GROUP, GROUP.exp(x), proof,
                                        b"session-43")
        assert not zkp.verify_dlog_nizk(GROUP, GROUP.exp(x + 1), proof,
                                        b"session-42")

    def test_nizk_rejects_bad_commitment(self, rng):
        x = GROUP.random_scalar(rng)
        proof = zkp.DlogProof(commitment=GROUP.p - 1, response=1)
        assert not zkp.verify_dlog_nizk(GROUP, GROUP.exp(x), proof)
