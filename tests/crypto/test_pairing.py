"""Tests for the Type-1 Tate pairing: parameters, group laws, bilinearity."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto import params
from repro.crypto.numbertheory import is_probable_prime
from repro.crypto.pairing import Fp2, PairingParams, pairing_group
from repro.exceptions import CryptoError

G = pairing_group("TOY")
RNG = random.Random(0xFACE)


class TestParameters:
    @pytest.mark.parametrize("name", ["TOY", "TEST", "STD"])
    def test_parameter_soundness(self, name):
        raw = params.PAIRING_PARAMS[name]
        p, q, h = raw["p"], raw["q"], raw["cofactor"]
        assert is_probable_prime(p)
        assert is_probable_prime(q)
        assert p % 4 == 3              # supersingular curve condition
        assert (p + 1) % q == 0        # subgroup order divides #E(F_p)
        assert q * h == p + 1

    def test_params_validation(self):
        with pytest.raises(CryptoError):
            PairingParams(name="bad", p=13, q=7, cofactor=2)  # 13 % 4 == 1
        with pytest.raises(CryptoError):
            PairingParams(name="bad", p=11, q=7, cofactor=1)  # 7 ∤ 12

    def test_unknown_set_rejected(self):
        with pytest.raises(CryptoError):
            pairing_group("HUGE")

    def test_group_cache(self):
        assert pairing_group("TOY") is pairing_group("TOY")


class TestFp2:
    P = G.p

    def test_i_squared_is_minus_one(self):
        i = Fp2(0, 1, self.P)
        assert i * i == Fp2(-1, 0, self.P)

    @given(st.integers(min_value=0, max_value=10**30),
           st.integers(min_value=0, max_value=10**30))
    @settings(max_examples=30, deadline=None)
    def test_inverse(self, a, b):
        x = Fp2(a, b, self.P)
        if x.a == 0 and x.b == 0:
            return
        assert x * x.inverse() == Fp2(1, 0, self.P)

    def test_zero_has_no_inverse(self):
        with pytest.raises(CryptoError):
            Fp2(0, 0, self.P).inverse()

    @given(st.integers(min_value=1, max_value=10**20),
           st.integers(min_value=0, max_value=10**20))
    @settings(max_examples=20, deadline=None)
    def test_square_matches_mul(self, a, b):
        x = Fp2(a, b, self.P)
        assert x.square() == x * x

    def test_pow_laws(self):
        x = Fp2(3, 4, self.P)
        assert x.pow(0) == Fp2(1, 0, self.P)
        assert x.pow(5) == x * x * x * x * x
        assert x.pow(-2) == x.inverse().square()

    def test_frobenius_via_conjugate(self):
        # For p = 3 mod 4, x^p == conjugate(x).
        x = Fp2(123456789, 987654321, self.P)
        # compute x^p the slow way on a small exponent decomposition:
        assert x.pow(self.P) == x.conjugate()

    def test_serialization_width(self):
        x = Fp2(1, 2, self.P)
        assert len(x.to_bytes()) == 2 * ((self.P.bit_length() + 7) // 8)


class TestG1:
    def test_generator_on_curve_and_order(self):
        g = G.generator
        x, y = g.point
        assert (y * y - (x ** 3 + x)) % G.p == 0
        assert (g ** G.q).is_identity()
        assert not g.is_identity()

    def test_group_laws(self):
        g = G.generator
        a = G.random_scalar(RNG)
        b = G.random_scalar(RNG)
        assert (g ** a) * (g ** b) == g ** ((a + b) % G.q)
        assert (g ** a) * (g ** a).inverse() == G.identity_g1()
        assert g ** 0 == G.identity_g1()

    def test_identity_is_neutral(self):
        g = G.generator
        assert g * G.identity_g1() == g
        assert G.identity_g1() * g == g

    def test_hash_to_g1_deterministic_and_on_curve(self):
        p1 = G.hash_to_g1(b"seed")
        p2 = G.hash_to_g1(b"seed")
        p3 = G.hash_to_g1(b"other")
        assert p1 == p2 and p1 != p3
        assert (p1 ** G.q).is_identity()

    def test_serialization_distinct(self):
        assert G.generator.to_bytes() != (G.generator ** 2).to_bytes()
        assert G.identity_g1().to_bytes() == b"\x00"


class TestPairing:
    def test_bilinearity(self):
        g = G.generator
        e = G.pair(g, g)
        for _ in range(5):
            a = G.random_scalar(RNG)
            b = G.random_scalar(RNG)
            assert G.pair(g ** a, g ** b) == e ** (a * b % G.q)

    def test_non_degenerate(self):
        assert G.pair(G.generator, G.generator) != G.one_gt()

    def test_symmetry(self):
        g = G.generator
        a, b = 1234567, 7654321
        assert G.pair(g ** a, g ** b) == G.pair(g ** b, g ** a)

    def test_identity_pairs_to_one(self):
        assert G.pair(G.identity_g1(), G.generator) == G.one_gt()
        assert G.pair(G.generator, G.identity_g1()) == G.one_gt()

    def test_output_has_order_q(self):
        e = G.pair(G.generator, G.generator ** 3)
        assert e ** G.q == G.one_gt()

    def test_pairing_with_hashed_points(self):
        p = G.hash_to_g1(b"p")
        q = G.hash_to_g1(b"q")
        a = 31337
        assert G.pair(p ** a, q) == G.pair(p, q ** a)

    def test_gt_arithmetic(self):
        e = G.pair(G.generator, G.generator)
        assert e / e == G.one_gt()
        assert e * e.inverse() == G.one_gt()
        assert e ** 2 == e * e

    def test_cross_group_rejected(self):
        other = pairing_group("TEST")
        with pytest.raises(CryptoError):
            G.pair(G.generator, other.generator)

    def test_test_level_bilinearity(self):
        big = pairing_group("TEST")
        g = big.generator
        assert big.pair(g ** 3, g ** 5) == big.pair(g, g) ** 15

    def test_random_gt_has_order_q(self):
        x = G.random_gt(RNG)
        assert x ** G.q == G.one_gt()


class TestMixedGroupsRejected:
    """Elements of two parameter sets never combine: a TOY x TEST product
    used to return a point on neither curve."""

    other = pairing_group("TEST")

    def test_g1_product(self):
        with pytest.raises(CryptoError):
            G.generator * self.other.generator

    def test_gt_product(self):
        with pytest.raises(CryptoError):
            G.one_gt() * self.other.one_gt()

    def test_gt_quotient(self):
        with pytest.raises(CryptoError):
            G.one_gt() / self.other.one_gt()

    def test_multi_exp(self):
        with pytest.raises(CryptoError):
            G.multi_exp([G.generator, self.other.generator], [1, 1])

    def test_pair_product(self):
        g, h = G.generator, self.other.generator
        for num, den in (([(g, g)], [(g, h)]), ([(h, g)], []),
                         ([(g, G.identity_g1())], [(self.other.identity_g1(),
                                                    g)])):
            with pytest.raises(CryptoError):
                G.pair_product(num, den)
