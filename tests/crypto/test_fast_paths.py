"""The exact fast paths of ``repro.crypto`` against the code they replaced.

``pow(a, -1, m)``, Jacobian G1 scalar multiplication, the inversion-free
Miller loop and the T-table AES must return *the same values* as the
extended-Euclid / affine / list-based implementations kept in
:mod:`tests.crypto.reference` — not merely satisfy the same algebraic laws:
every stored header and ciphertext is derived from them.
"""

import math
import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto import numbertheory as nt
from repro.crypto import pairing
from repro.crypto import symmetric as sym
from repro.crypto.aes import AES
from repro.crypto.pairing import (G1Element, PairingGroup, PairingParams,
                                  pairing_group)
from repro.exceptions import CryptoError
from tests.crypto import reference as ref

#: supersingular toy curves small enough to enumerate.  (19, 5) has Miller
#: loops that cross horizontal *tangents* (slope numerator 0) and (131, 11)
#: horizontal *chords* — a line that must be multiplied in, not skipped.
TINY = [(43, 11), (59, 5), (19, 5), (131, 11)]
#: On (19, 5) every subgroup ``y`` is ``+-4``, so a wrongly skipped
#: horizontal tangent happens to die in the final exponentiation; (283, 71)
#: is the one curve with p < 400 where skipping it changes a pairing value
#: (792 of the 4 900 pairs).  Too big for the all-points-all-scalars sweep.
TINY_PAIRINGS = TINY + [(283, 71)]
LEVELS = ["TOY", "TEST"]


def tiny_group(p: int, q: int) -> PairingGroup:
    return PairingGroup(PairingParams("X", p, q, (p + 1) // q))


def curve_points(p: int) -> list:
    """All of ``E(F_p)``, infinity first."""
    return [None] + [(x, y) for x in range(p) for y in range(p)
                     if (y * y - x * x * x - x) % p == 0]


def subgroup(group: PairingGroup) -> list:
    """The ``q - 1`` non-identity elements of order ``q``."""
    elements = [G1Element(group, P) for P in curve_points(group.p)[1:]
                if ref.point_mul(P, group.q, group.p) is None]
    assert len(elements) == group.q - 1
    return elements


class TestExhaustiveTinyCurves:
    """Every point and scalar: the only test that reaches 2-torsion,
    ``T = +-P`` and infinity mid-loop, and zero slopes."""

    @pytest.mark.parametrize("p,q", TINY)
    def test_point_mul_equals_the_affine_loop_everywhere(self, p, q):
        points = curve_points(p)
        assert len(points) == p + 1                      # supersingular
        assert any(P is not None and P[1] == 0 for P in points)  # 2-torsion
        for P in points:
            for k in range(-(p + 1), 2 * (p + 1) + 1):
                assert pairing._point_mul(P, k, p) == ref.point_mul(P, k, p), \
                    (P, k)

    @pytest.mark.parametrize("p,q", TINY_PAIRINGS)
    def test_pairing_equals_the_affine_miller_loop_on_every_pair(self, p, q):
        group = tiny_group(p, q)
        elements = subgroup(group)
        for P in elements:
            for Q in elements:
                assert group.pair(P, Q) == ref.pair(group, P, Q), (P, Q)

    @pytest.mark.parametrize("p,q,kind", [(19, 5, "tangent"),
                                          (283, 71, "tangent"),
                                          (131, 11, "chord")])
    def test_the_curves_do_cross_horizontal_lines(self, p, q, kind,
                                                  monkeypatch):
        """The hazard is in the data: a slope numerator of 0 on a real line."""
        seen = set()
        double, add = pairing._jac_double, pairing._jac_add_affine

        def spy_double(*args):
            out = double(*args)
            if out[2] and out[3] == 0:
                seen.add("tangent")
            return out

        def spy_add(*args):
            out = add(*args)
            if out[3] == 0:             # 0, not None: a line, and horizontal
                seen.add("chord")
            return out

        monkeypatch.setattr(pairing, "_jac_double", spy_double)
        monkeypatch.setattr(pairing, "_jac_add_affine", spy_add)
        group = tiny_group(p, q)
        for P in subgroup(group):
            group.pair(P, P)
        assert kind in seen

    @pytest.mark.parametrize("p,q", TINY_PAIRINGS)
    def test_no_subgroup_pairing_adds_T_equal_to_P(self, p, q, monkeypatch):
        """``_jac_add_affine``'s ``T = P`` arm (where the affine loop skipped
        a tangent it should not have) is dead code for points of prime
        order: ``T = kP`` with ``1 < k < q`` at every addition step."""
        group = tiny_group(p, q)
        add = pairing._jac_add_affine
        hits = []

        def spy(X, Y, Z, x2, y2, p_):
            if (Z and (x2 * Z * Z - X) % p_ == 0
                    and (y2 * Z ** 3 - Y) % p_ == 0):
                hits.append((X, Y, Z))
            return add(X, Y, Z, x2, y2, p_)

        monkeypatch.setattr(pairing, "_jac_add_affine", spy)
        elements = subgroup(group)
        for P in elements:
            for Q in elements:
                group.pair(P, Q)
        assert not hits
        # ...and the spy does see the arm when it is entered: 2 * P = P + P
        # reaches it through a scalar whose doubling lands back on P
        P = elements[0].point
        pairing._point_mul(P, q + 2, p)
        assert hits


@pytest.mark.parametrize("level", LEVELS)
class TestAgainstTheReferenceAtRealSizes:
    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_exponentiation_bytes(self, level, data):
        group = pairing_group(level)
        q = group.q
        a = group.hash_to_g1(data.draw(st.binary(max_size=16)))
        k = data.draw(st.integers(min_value=-2 * q, max_value=2 * q))
        for e in (k, -k, 0, 1, q - 1, q):
            want = G1Element(group, ref.point_mul(a.point, e % q, group.p))
            assert (a ** e).to_bytes() == want.to_bytes()
        assert (pairing._point_mul(a.point, -k, group.p)
                == ref.point_mul(a.point, -k, group.p))

    @given(seed=st.binary(max_size=32))
    @settings(max_examples=25, deadline=None)
    def test_hash_to_g1_bytes(self, level, seed):
        group = pairing_group(level)
        got = group.hash_to_g1(seed)
        # the cofactor clears a point of composite order
        with mock.patch.object(pairing, "_point_mul", ref.point_mul):
            want = group.hash_to_g1(seed)
        assert got.to_bytes() == want.to_bytes()

    @given(data=st.data())
    @settings(max_examples=15, deadline=None)
    def test_pairing_bytes(self, level, data):
        group = pairing_group(level)
        scalars = st.integers(min_value=0, max_value=group.q)  # 0, q: identity
        a = group.generator ** data.draw(scalars)
        b = group.hash_to_g1(b"other base") ** data.draw(scalars)
        assert group.pair(a, b).to_bytes() == ref.pair(group, a, b).to_bytes()

    @given(data=st.data())
    @settings(max_examples=10, deadline=None)
    def test_bilinearity(self, level, data):
        group = pairing_group(level)
        scalars = st.integers(min_value=1, max_value=group.q - 1)
        a, b = data.draw(scalars), data.draw(scalars)
        P = group.hash_to_g1(data.draw(st.binary(max_size=8)))
        Q = group.hash_to_g1(data.draw(st.binary(max_size=8)))
        assert group.pair(P ** a, Q ** b) == group.pair(P, Q) ** (a * b)


class TestInversionRatchet:
    """A perf gate with no clock in it: the affine code paid one modular
    inversion per curve operation (101, 193 and 128 for the three calls
    below, at TOY); Jacobian code pays one per result."""

    @pytest.fixture
    def inversions(self, monkeypatch):
        calls = []

        def counting(a, m):
            calls.append(a)
            return nt.modinv(a, m)

        monkeypatch.setattr(pairing, "modinv", counting)
        return calls

    def test_one_inversion_per_group_operation(self, inversions):
        group = pairing_group("TOY")
        a = group.generator ** 0xC0FFEE
        b = group.generator ** 0xDECADE
        for operation in (lambda: a ** (group.q - 2),
                          lambda: group.pair(a, b),
                          lambda: group.hash_to_g1(b"ratchet")):
            del inversions[:]
            operation()
            assert len(inversions) <= 1


class TestAES:
    @given(key=st.sampled_from([16, 24, 32]).flatmap(
               lambda n: st.binary(min_size=n, max_size=n)),
           block=st.binary(min_size=16, max_size=16))
    @settings(max_examples=150, deadline=None)
    def test_t_table_rounds_equal_the_list_rounds(self, key, block):
        cipher = AES(key)
        assert cipher.encrypt_block(block) == ref.encrypt_block(cipher, block)

    @pytest.mark.parametrize("length", [0, 1, 15, 16, 17, 1000])
    def test_ctr_over_the_reference_block_cipher(self, length):
        rng = random.Random(length)
        key, nonce, data = rng.randbytes(32), rng.randbytes(8), \
            rng.randbytes(length)
        cipher = AES(key)
        stream = b"".join(
            ref.encrypt_block(cipher, nonce + counter.to_bytes(8, "big"))
            for counter in range((length + 15) // 16))
        want = bytes(d ^ s for d, s in zip(data, stream))
        assert sym.aes_ctr(key, nonce, data) == want
        assert len(want) == length


class TestModinv:
    @given(a=st.integers(min_value=-10**40, max_value=10**40),
           m=st.one_of(st.integers(min_value=1, max_value=50),
                       st.integers(min_value=1, max_value=10**40)))
    @settings(max_examples=300, deadline=None)
    def test_equals_the_extended_euclid_formula(self, a, m):
        if math.gcd(a, m) == 1:
            assert nt.modinv(a, m) == ref.modinv(a, m)
        else:
            for inverse in (nt.modinv, ref.modinv):
                with pytest.raises(CryptoError):
                    inverse(a, m)

    def test_edges(self):
        assert nt.modinv(5, 1) == ref.modinv(5, 1) == 0
        assert nt.modinv(-3, 7) == ref.modinv(-3, 7) == 2
        assert nt.modinv(10 ** 9, 7) == ref.modinv(10 ** 9, 7)

    @pytest.mark.parametrize("a,m", [(0, 7), (6, 9), (14, 7), (-4, 8)])
    def test_no_inverse_is_a_crypto_error_never_a_value_error(self, a, m):
        assert not issubclass(CryptoError, ValueError)
        with pytest.raises(CryptoError):
            nt.modinv(a, m)
