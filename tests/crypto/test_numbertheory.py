"""Tests for repro.crypto.numbertheory."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto import numbertheory as nt
from repro.exceptions import CryptoError

KNOWN_PRIMES = [2, 3, 5, 17, 97, 101, 7919, 104729, (1 << 61) - 1]
KNOWN_COMPOSITES = [1, 4, 15, 91, 561, 1105, 6601, 8911,  # incl. Carmichaels
                    7919 * 104729]


class TestPrimality:
    @pytest.mark.parametrize("p", KNOWN_PRIMES)
    def test_known_primes(self, p):
        assert nt.is_probable_prime(p)

    @pytest.mark.parametrize("c", KNOWN_COMPOSITES)
    def test_known_composites(self, c):
        assert not nt.is_probable_prime(c)

    def test_negative_and_zero(self):
        assert not nt.is_probable_prime(0)
        assert not nt.is_probable_prime(-7)

    @given(st.integers(min_value=6, max_value=10))
    @settings(max_examples=5, deadline=None)
    def test_generated_primes_have_exact_bit_length(self, bits):
        p = nt.generate_prime(bits, rng=random.Random(bits))
        assert p.bit_length() == bits
        assert nt.is_probable_prime(p)

    def test_generate_prime_rejects_tiny(self):
        with pytest.raises(CryptoError):
            nt.generate_prime(1)


class TestEgcdModinv:
    @given(st.integers(min_value=1, max_value=10**12),
           st.integers(min_value=1, max_value=10**12))
    @settings(max_examples=50, deadline=None)
    def test_egcd_bezout_identity(self, a, b):
        g, x, y = nt.egcd(a, b)
        assert a * x + b * y == g
        assert a % g == 0 and b % g == 0

    @given(st.integers(min_value=2, max_value=10**9))
    @settings(max_examples=50, deadline=None)
    def test_modinv_roundtrip(self, a):
        m = 2147483647  # prime
        inv = nt.modinv(a, m)
        assert a * inv % m == 1

    def test_modinv_nonexistent(self):
        with pytest.raises(CryptoError):
            nt.modinv(6, 9)


class TestQuadraticResidues:
    P = 10007  # prime, 3 mod 4

    def test_jacobi_matches_euler(self):
        for a in range(1, 50):
            euler = pow(a, (self.P - 1) // 2, self.P)
            expected = 1 if euler == 1 else -1
            assert nt.jacobi(a, self.P) == expected

    def test_jacobi_zero(self):
        assert nt.jacobi(self.P, self.P) == 0

    def test_jacobi_rejects_even_modulus(self):
        with pytest.raises(CryptoError):
            nt.jacobi(3, 10)

    @given(st.integers(min_value=1, max_value=10006))
    @settings(max_examples=50, deadline=None)
    def test_sqrt_mod_3mod4(self, a):
        square = a * a % self.P
        root = nt.sqrt_mod(square, self.P)
        assert root * root % self.P == square

    def test_sqrt_mod_1mod4_tonelli(self):
        p = 10009  # 1 mod 4
        for a in range(2, 40):
            square = a * a % p
            root = nt.sqrt_mod(square, p)
            assert root * root % p == square

    def test_sqrt_of_nonresidue_raises(self):
        # Find a non-residue and check.
        for a in range(2, 100):
            if nt.jacobi(a, self.P) == -1:
                with pytest.raises(CryptoError):
                    nt.sqrt_mod(a, self.P)
                return
        pytest.fail("no non-residue found")

    def test_sqrt_of_zero(self):
        assert nt.sqrt_mod(0, self.P) == 0


class TestPolynomials:
    Q = 2147483647

    @given(st.integers(min_value=0, max_value=2**31 - 2),
           st.integers(min_value=1, max_value=5))
    @settings(max_examples=30, deadline=None)
    def test_shamir_reconstruction(self, secret, degree):
        rng = random.Random(secret)
        poly = nt.random_polynomial(degree, secret, self.Q, rng)
        indices = list(range(1, degree + 2))
        shares = {i: nt.poly_eval(poly, i, self.Q) for i in indices}
        recovered = sum(
            shares[i] * nt.lagrange_coefficient(i, indices, 0, self.Q)
            for i in indices) % self.Q
        assert recovered == secret % self.Q

    def test_too_few_shares_fail(self):
        rng = random.Random(7)
        poly = nt.random_polynomial(2, 12345, self.Q, rng)
        indices = [1, 2]  # degree 2 needs 3 shares
        recovered = sum(
            nt.poly_eval(poly, i, self.Q)
            * nt.lagrange_coefficient(i, indices, 0, self.Q)
            for i in indices) % self.Q
        assert recovered != 12345

    def test_poly_eval_constant(self):
        assert nt.poly_eval([42], 999, self.Q) == 42


class TestByteCodecs:
    @given(st.integers(min_value=0, max_value=2**256))
    @settings(max_examples=50, deadline=None)
    def test_roundtrip(self, n):
        assert nt.bytes_to_int(nt.int_to_bytes(n)) == n

    def test_fixed_width(self):
        assert nt.int_to_bytes(1, 4) == b"\x00\x00\x00\x01"

    def test_rejects_negative(self):
        with pytest.raises(CryptoError):
            nt.int_to_bytes(-1)
