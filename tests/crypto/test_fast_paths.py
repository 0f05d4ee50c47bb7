"""The exact fast paths of ``repro.crypto`` against the code they replaced.

``pow(a, -1, m)``, Jacobian G1 scalar multiplication, the inversion-free
Miller loop, the generator's fixed-base table, the shared doubling chain of
``multi_exp``, the single final exponentiation of ``pair_product``,
``Fp2.pow`` on ints, the word-based AES key schedule, the T-table AES,
Schnorr verify's per-key ``y^-1`` and the per-key Lim–Lee comb must return
*the same values* as the extended-Euclid / affine / per-base / per-pairing
/ list-based / per-call inversion / plain ``pow`` implementations kept in
:mod:`tests.crypto.reference` — not merely satisfy the same algebraic laws:
every stored header and ciphertext is derived from them.
"""

import math
import random
import struct
import sys
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.acl import SCHEME_REGISTRY
from repro.acl.abe_acl import ABEACL
from repro.crypto import elgamal
from repro.crypto import numbertheory as nt
from repro.crypto import pairing
from repro.crypto import symmetric as sym
from repro.crypto.abe import CPABE
from repro.crypto.aes import AES
from repro.crypto.groups import SchnorrGroup, group_for_level
from repro.crypto.ibbe import IBBE
from repro.crypto.pairing import (Fp2, G1Element, PairingGroup, PairingParams,
                                  pairing_group)
from repro.crypto.signatures import (SchnorrPublicKey, _challenge,
                                     generate_schnorr_keypair)
from repro.exceptions import CryptoError
from tests.acl.test_golden_bytes import lifecycle_digest
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
#: safe primes ``p = 2q + 1`` small enough for every base and exponent; ``q``
#: runs from 2 to 8 bits, so a comb row is 1 or 2 bits wide and rows past
#: the top of ``q`` are all zero
TINY_SAFE_PRIMES = [7, 11, 23, 47, 107, 263, 383]


def tiny_group(p: int, q: int) -> PairingGroup:
    return PairingGroup(PairingParams("X", p, q, (p + 1) // q))


def curve_points(p: int) -> list:
    """All of ``E(F_p)``, infinity first."""
    return [None] + [(x, y) for x in range(p) for y in range(p)
                     if (y * y - x * x * x - x) % p == 0]


_IBBE_KEYS: dict = {}


def _ibbe_key(level: str):
    """One IBBE public key (8 recipients) per level, shared by examples."""
    if level not in _IBBE_KEYS:
        _IBBE_KEYS[level] = IBBE(level).setup(8, random.Random(level))[0]
    return _IBBE_KEYS[level]


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

    @pytest.mark.parametrize("p,q", TINY)
    def test_generator_table_equals_the_affine_loop_for_every_scalar(self, p,
                                                                     q):
        """Every subgroup element as the generator, every scalar; on these
        curves ``q <= 15``, so some table entries are the identity."""
        for g in subgroup(tiny_group(p, q)):
            group = tiny_group(p, q)
            group.generator = g
            table = group._generator_table
            assert None in table
            for index, entry in enumerate(table):
                digit, position = index % 16, index // 16
                assert entry == ref.point_mul(g.point, digit * 16 ** position,
                                              p)
            for k in range(-(q + 1), 2 * (q + 1) + 1):
                assert (g ** k).point == ref.point_mul(g.point, k, p), (g, k)

    @pytest.mark.parametrize("p,q", TINY)
    def test_multi_exp_equals_the_separate_powers(self, p, q):
        """Exponents 0, negative and >= q; repeated bases; ``P`` and ``-P``
        (``Q`` runs over every element, ``-P`` included); the identity."""
        group = tiny_group(p, q)
        elements = [group.identity_g1()] + subgroup(group)
        edges = [0, 1, -1, 2, q - 1, q, q + 1, -q, 2 * q + 3]
        for P in elements:
            for k in range(-(q + 1), 2 * (q + 1) + 1):
                assert (group.multi_exp([P], [k])
                        == ref.multi_exp(group, [P], [k])), (P, k)
            for Q in elements:
                for a in edges:
                    for b in edges:
                        bases, exponents = [P, Q, P], [a, b, a + b]
                        assert (group.multi_exp(bases, exponents)
                                == ref.multi_exp(group, bases, exponents)), \
                            (P, Q, a, b)
        assert group.multi_exp([], []).is_identity()

    @pytest.mark.parametrize("p,q", TINY_PAIRINGS)
    def test_pair_product_equals_products_and_quotients_of_pairings(self, p,
                                                                    q):
        group = tiny_group(p, q)
        elements = [group.identity_g1()] + subgroup(group)
        R = elements[1]
        for P in elements:
            for Q in elements:
                num, den = [(P, Q), (R, P)], [(Q, R)]
                assert (group.pair_product(num, den)
                        == ref.pair_product(group, num, den)), (P, Q)
                assert (group.pair_product([], [(P, Q)])
                        == ref.pair_product(group, [], [(P, Q)])), (P, Q)
        assert group.pair_product([]) == group.one_gt()


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
    @settings(max_examples=25, deadline=None)
    def test_generator_bytes(self, level, data):
        group = pairing_group(level)
        q, g = group.q, group.generator
        k = data.draw(st.integers(min_value=-2 * q, max_value=2 * q))
        for e in (k, -k, 0, 1, 15, 16, q - 1, q, q + 1):
            want = G1Element(group, ref.point_mul(g.point, e % q, group.p))
            assert (g ** e).to_bytes() == want.to_bytes()

    @given(data=st.data())
    @settings(max_examples=20, deadline=None)
    def test_multi_exp_bytes(self, level, data):
        group = pairing_group(level)
        q = group.q
        pool = [group.hash_to_g1(bytes([i])) for i in range(3)]
        pool += [P.inverse() for P in pool]
        pool += [group.generator, group.identity_g1()]
        exponent = st.one_of(st.integers(min_value=-2 * q, max_value=2 * q),
                             st.sampled_from([0, 1, -1, q - 1, q, q + 1]))
        n = data.draw(st.integers(min_value=1, max_value=6))
        bases = [data.draw(st.sampled_from(pool)) for _ in range(n)]
        exponents = [data.draw(exponent) for _ in range(n)]
        assert (group.multi_exp(bases, exponents).to_bytes()
                == ref.multi_exp(group, bases, exponents).to_bytes())

    @given(data=st.data())
    @settings(max_examples=10, deadline=None)
    def test_pair_product_bytes(self, level, data):
        group = pairing_group(level)
        scalars = st.integers(min_value=0, max_value=group.q)  # 0, q: identity
        other = group.hash_to_g1(b"other base")

        def pairs(most):
            return [(group.generator ** data.draw(scalars),
                     other ** data.draw(scalars))
                    for _ in range(data.draw(st.integers(0, most)))]

        num, den = pairs(2), pairs(2)
        assert (group.pair_product(num, den).to_bytes()
                == ref.pair_product(group, num, den).to_bytes())

    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_fp2_pow(self, level, data):
        p = pairing_group(level).p
        coordinate = st.integers(min_value=0, max_value=p - 1)
        x = Fp2(data.draw(coordinate), data.draw(coordinate), p)
        e = data.draw(st.one_of(st.integers(min_value=-p * p, max_value=p * p),
                                st.integers(min_value=-2, max_value=2)))
        if x.a == x.b == 0 and e < 0:
            for power in (x.pow, lambda n: ref.fp2_pow(x, n)):
                with pytest.raises(CryptoError):
                    power(e)
        else:
            assert x.pow(e) == ref.fp2_pow(x, e)

    @given(data=st.data())
    @settings(max_examples=15, deadline=None)
    def test_poly_in_h_bytes(self, level, data):
        ibbe = IBBE(level)
        pk = _ibbe_key(level)
        q = ibbe.group.q
        coeffs = data.draw(st.lists(
            st.one_of(st.integers(min_value=0, max_value=q - 1), st.just(0)),
            min_size=1, max_size=len(pk.h_powers)))
        assert (ibbe._poly_in_h(pk, coeffs).to_bytes()
                == ref.poly_in_h(ibbe.group, pk.h_powers, coeffs).to_bytes())

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
                          lambda: group.hash_to_g1(b"ratchet"),
                          lambda: group.generator ** (group.q - 2),
                          lambda: group.multi_exp([a, b, a], [3, -5, 7]),
                          lambda: group.pair_product([(a, b), (b, b)],
                                                     [(b, a)])):
            del inversions[:]
            operation()
            assert len(inversions) <= 1


def _counting(monkeypatch, owner, name) -> list:
    """Replace ``owner.name`` by a pass-through spy; return its call log."""
    calls: list = []
    original = getattr(owner, name)

    def spy(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, spy)
    return calls


class TestOperationRatchet:
    """Like the inversion ratchet, perf gates that count instead of timing:
    each fast path pays only the operations it promises."""

    def test_a_power_of_the_generator_runs_no_doubling(self, monkeypatch):
        group = pairing_group("TOY")
        assert group._generator_table               # built once per group
        doublings = _counting(monkeypatch, pairing, "_jac_double")
        for k in (1, 2, 15, 16, 0xC0FFEE, group.q - 1, group.q + 5, -3):
            group.generator ** k
        group.random_g1(random.Random(1))
        assert doublings == []
        (group.generator ** 7) ** 7                  # any other base doubles
        assert doublings

    def test_poly_in_h_runs_one_doubling_chain(self, monkeypatch):
        ibbe = IBBE("TOY")
        pk, _ = ibbe.setup(16, random.Random(2))
        rng = random.Random(3)
        coeffs = [rng.randrange(ibbe.group.q) for _ in range(17)]
        doublings = _counting(monkeypatch, pairing, "_jac_double")
        fast = ibbe._poly_in_h(pk, coeffs)
        assert 0 < len(doublings) <= ibbe.group.q.bit_length()
        del doublings[:]
        assert ref.poly_in_h(ibbe.group, pk.h_powers, coeffs) == fast
        assert len(doublings) > 16 * ibbe.group.q.bit_length() // 2

    def test_one_final_exponentiation_per_ibbe_decryption(self, monkeypatch):
        rng = random.Random(4)
        ibbe = IBBE("TOY")
        pk, msk = ibbe.setup(8, rng)
        header, session = ibbe.encrypt_key(pk, [f"u{i}" for i in range(6)],
                                           rng)
        user = msk.extract("u3")
        exponentiations = _counting(monkeypatch, PairingGroup, "_final_exp")
        assert ibbe.decrypt_key(pk, header, user) == session
        assert len(exponentiations) == 1

    @pytest.mark.parametrize("policy,leaves", [("a", 1), ("a and b", 2),
                                               ("a or z", 1),
                                               ("2 of (a, b, c)", 2)])
    def test_one_final_exponentiation_per_abe_leaf(self, monkeypatch, policy,
                                                   leaves):
        rng = random.Random(5)
        abe = CPABE("TOY")
        pk, msk = abe.setup(rng)
        sk = abe.keygen(pk, msk, ["a", "b", "c"], rng)
        message = abe.group.random_gt(rng)
        ct = abe.encrypt_element(pk, message, policy, rng)
        exponentiations = _counting(monkeypatch, PairingGroup, "_final_exp")
        assert abe.decrypt_element(ct, sk) == message
        assert len(exponentiations) == leaves + 1     # + e(C, D) at the root

    def test_a_cp_abe_revocation_hashes_at_most_one_attribute(self,
                                                              monkeypatch):
        scheme = ABEACL(rng=random.Random(6))
        scheme.create_group("g", [f"u{i}" for i in range(6)])
        for i in range(3):
            scheme.publish("g", f"item{i}", b"x")
        hashes = _counting(monkeypatch, PairingGroup, "hash_to_g1")
        scheme.revoke_member("g", "u0")    # 5 keygens + 1 + 3 re-encryptions
        assert len(hashes) <= 1
        scheme.publish("g", "after", b"y")
        assert scheme.read("g", "after", "u1") == b"y"
        assert len(hashes) <= 1

    def test_no_scheme_runs_the_aes_block_cipher(self, monkeypatch):
        blocks = _counting(monkeypatch, AES, "encrypt_block")
        assert sorted(SCHEME_REGISTRY) == ["cp-abe", "hybrid", "ibbe",
                                           "public-key", "symmetric"]
        lifecycle_digest()        # every scheme: create, publish, revoke, read
        assert blocks == []
        sym.aes_ctr(b"k" * 32, b"n" * 8, b"x" * 33)    # the spy does count
        assert len(blocks) == 3

    def test_a_schnorr_key_inverts_once_not_once_per_verify(self,
                                                            monkeypatch):
        signer = generate_schnorr_keypair("TOY", random.Random(7))
        messages = [bytes([i]) for i in range(4)]
        signatures = [signer.sign(m, rng=random.Random(i))
                      for i, m in enumerate(messages)]
        inversions = _counting(monkeypatch, SchnorrGroup, "inverse")
        key = SchnorrPublicKey(signer.group, signer.public_key.y)
        for message, signature in zip(messages, signatures):
            assert key.verify(message, signature)
        assert not key.verify(b"other", signatures[0])
        assert len(inversions) == 1

    def test_a_key_builds_one_comb_and_verify_runs_no_pow(self, monkeypatch):
        signer = generate_schnorr_keypair("TOY", random.Random(8))
        signatures = [(bytes([i]), signer.sign(bytes([i]),
                                               rng=random.Random(i)))
                      for i in range(12)]
        combs = _counting(monkeypatch, SchnorrGroup, "comb")
        powers = _counting(monkeypatch, SchnorrGroup, "power")
        key = SchnorrPublicKey(signer.group, signer.public_key.y)
        for message, signature in signatures:
            assert key.verify(message, signature)
            assert not key.verify(message + b"!", signature)
        assert len(combs) == 1
        assert powers == []
        SchnorrPublicKey(signer.group, signer.public_key.y).verify(
            b"m", signatures[0][1])           # a second key builds its own
        assert len(combs) == 2

    def test_an_elgamal_key_builds_one_comb(self, monkeypatch):
        priv = elgamal.generate_keypair("TOY", random.Random(9))
        combs = _counting(monkeypatch, SchnorrGroup, "comb")
        powers = _counting(monkeypatch, SchnorrGroup, "power")
        for i in range(5):
            elgamal.encrypt_bytes(priv.public_key, bytes([i]),
                                  random.Random(i))
        assert len(combs) == 1
        assert powers == []

    def test_a_toy_comb_fits_in_one_and_a_half_kilobytes(self):
        group = group_for_level("TOY")
        key = generate_schnorr_keypair("TOY", random.Random(10)).public_key
        key.verify(b"m", (1, 1))
        comb = key._comb
        assert len(comb) == 16 and comb[1] == pow(key.y, -1, group.p)
        assert sys.getsizeof(comb) + sum(map(sys.getsizeof, comb)) <= 1536


class TestAES:
    @given(key=st.sampled_from([16, 24, 32]).flatmap(
               lambda n: st.binary(min_size=n, max_size=n)),
           block=st.binary(min_size=16, max_size=16))
    @settings(max_examples=150, deadline=None)
    def test_t_table_rounds_equal_the_list_rounds(self, key, block):
        cipher = AES(key)
        assert cipher.encrypt_block(block) == ref.encrypt_block(key, block)

    @pytest.mark.parametrize("length", [16, 24, 32])
    @given(data=st.data())
    @settings(max_examples=50, deadline=None)
    def test_word_key_schedule_equals_the_list_schedule(self, length, data):
        key = data.draw(st.binary(min_size=length, max_size=length))
        cipher = AES(key)
        listed = ref.expand_key(key)
        words = cipher._enc_words
        assert len(words) == 4 * len(listed)
        assert struct.pack(f">{len(words)}I", *words) == bytes(sum(listed, []))

    @pytest.mark.parametrize("length", [0, 1, 15, 16, 17, 1000])
    def test_ctr_over_the_reference_block_cipher(self, length):
        rng = random.Random(length)
        key, nonce, data = rng.randbytes(32), rng.randbytes(8), \
            rng.randbytes(length)
        stream = b"".join(
            ref.encrypt_block(key, nonce + counter.to_bytes(8, "big"))
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


class TestSchnorrVerify:
    """``verify`` raises a per-key ``y^-1`` to ``e``; the oracle inverts
    ``y^e`` on every call.  ``(y^-1)^e = (y^e)^-1 mod p`` for every integer
    ``y``, and ``y = 0 mod p`` gives 0 (``e > 0``) or 1 (``e = 0``) both
    ways, so the two agree off the order-``q`` subgroup too — where
    ``y^(q - e)`` would not: a non-residue has ``y^q = -1``."""

    @staticmethod
    def _sign(group: SchnorrGroup, x: int, message: bytes, k: int,
              negated: bool = False):
        """``(y, signature)`` that verifies under ``y = g^x`` or, negated,
        under the non-residue ``y = -g^x``: ``(-g^x)^-e = g^-xe`` for even
        ``e``, so nonces are retried until the challenge is even."""
        y = group.p - group.exp(x) if negated else group.exp(x)
        while True:
            e = _challenge(group, group.exp(k), y, message)
            if not negated or e % 2 == 0:
                return y, (e, (k + e * x) % group.q)
            k += 1

    @pytest.mark.parametrize("level", LEVELS)
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_equals_the_per_call_inversion(self, level, data):
        group = group_for_level(level)
        p, q = group.p, group.q
        scalar = st.integers(min_value=0, max_value=q - 1)
        x, k = data.draw(scalar), data.draw(scalar)
        message = data.draw(st.binary(max_size=16))
        raw = data.draw(st.integers(min_value=1, max_value=p - 1))
        non_residue = raw if pow(raw, q, p) != 1 else p - raw  # -1 is one
        assert pow(non_residue, q, p) == p - 1
        kind = data.draw(st.sampled_from(
            ["member", "negated", "one", "minus one", 0, p, non_residue,
             data.draw(st.integers(min_value=0, max_value=p))]))
        signed = {"member": (x, False), "negated": (x, True),
                  "one": (0, False), "minus one": (0, True)}
        if kind in signed:
            y, (e, s) = self._sign(group, signed[kind][0], message, k,
                                   negated=signed[kind][1])
        else:
            y, (e, s) = kind, self._sign(group, x, message, k)[1]
        signatures = [(e, s), (e, (s + 1) % q), ((e + 1) % q, s),
                      (0, 0), (0, q - 1), (q - 1, 0), (q - 1, q - 1),
                      (data.draw(scalar), data.draw(scalar)), (q, s), (e, -1)]
        key = SchnorrPublicKey(group, y)         # reused: its y^-1 is kept
        for signature in signatures:
            for m in (message, message + b"!"):
                want = ref.schnorr_verify(key, m, signature)
                assert key.verify(m, signature) == want, (y, signature)
                assert SchnorrPublicKey(group, y).verify(m, signature) == want
        assert key.verify(message, (e, s)) == (kind in signed)

    def test_keys_off_the_subgroup(self):
        group = group_for_level("TOY")
        p, q = group.p, group.q
        for y in (0, 1, p - 1, p):
            key = SchnorrPublicKey(group, y)
            for signature in ((0, 0), (0, 5), (1, 5), (q - 1, 0)):
                assert (key.verify(b"m", signature)
                        == ref.schnorr_verify(key, b"m", signature))
        for x, negated in ((0, False), (0, True), (5, True)):
            y, signature = self._sign(group, x, b"m", 12345, negated)
            key = SchnorrPublicKey(group, y)
            assert key.verify(b"m", signature)
            assert ref.schnorr_verify(key, b"m", signature)
            assert (pow(y, q, p) == p - 1) == negated

    def test_the_inverse_is_not_part_of_the_key(self):
        """``y^-1`` lives in the comb (its entry 1), and the comb is a cache."""
        group = group_for_level("TOY")
        used, fresh = SchnorrPublicKey(group, 16), SchnorrPublicKey(group, 16)
        used.verify(b"m", (1, 1))
        assert used._comb == group.comb(pow(16, -1, group.p))
        assert used._comb[1] == pow(16, -1, group.p)
        assert fresh._comb == ()
        assert used == fresh and hash(used) == hash(fresh)
        assert repr(used) == repr(fresh)
        with pytest.raises(TypeError):
            SchnorrPublicKey(group, 16, (1,))


class TestComb:
    """``comb_power(comb(b), e)`` against one plain ``pow`` of ``e mod q``
    (:func:`tests.crypto.reference.comb_power`), for every base: the
    subgroup, ``0``, ``1``, ``p - 1``, ``p`` and the non-residues."""

    @pytest.mark.parametrize("p", TINY_SAFE_PRIMES)
    def test_every_base_and_exponent_of_a_tiny_group(self, p):
        group = SchnorrGroup(p)
        q = group.q
        for base in range(p + 1):
            table = group.comb(base)
            assert len(table) == 16
            for e in range(q):
                assert (group.comb_power(table, e)
                        == pow(base, e, p) == ref.comb_power(group, base, e))
            for e in (q, q + 1, 2 * q - 1, -1, -q):      # reduced mod q
                assert (group.comb_power(table, e) == group.power(base, e)
                        == ref.comb_power(group, base, e)), (base, e)

    @pytest.mark.parametrize("level", LEVELS)
    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_equals_pow_at_real_sizes(self, level, data):
        group = group_for_level(level)
        p, q = group.p, group.q
        raw = data.draw(st.integers(min_value=1, max_value=p - 1))
        non_residue = raw if pow(raw, q, p) != 1 else p - raw  # -1 is one
        assert pow(non_residue, q, p) == p - 1
        base = data.draw(st.sampled_from(
            [0, 1, p - 1, p, non_residue, group.exp(raw),
             data.draw(st.integers(min_value=0, max_value=2 * p))]))
        table = group.comb(base)
        k = data.draw(st.integers(min_value=-2 * q, max_value=2 * q))
        row = (q.bit_length() + 3) // 4                 # row-boundary edges
        for e in (k, 0, 1, 2, q - 1, q, q + 1, (1 << row) - 1, 1 << row,
                  1 << 3 * row):
            assert (group.comb_power(table, e)
                    == ref.comb_power(group, base, e)
                    == group.power(base, e)), (base, e)
            if 0 <= e < q:
                assert group.comb_power(table, e) == pow(base, e, p)

    def test_power_reduces_the_exponent_for_every_base(self):
        """The documented contract: ``e`` is taken mod ``q`` whatever the
        base, so a base of order 2 or ``2q`` gets ``base^e`` only for
        ``e < q``."""
        group = group_for_level("TOY")
        p, q = group.p, group.q
        minus_one = group.comb(p - 1)
        assert group.power(p - 1, q) == 1 == group.comb_power(minus_one, q)
        assert pow(p - 1, q, p) == p - 1
        assert group.power(p - 1, q - 1) == 1 == pow(p - 1, q - 1, p)
        assert group.comb_power(minus_one, q - 2) == p - 1

    @pytest.mark.parametrize("level", LEVELS)
    @pytest.mark.parametrize("length", [0, 1, 32, 100])
    def test_elgamal_encrypt_bytes_equals_the_plain_pow_reference(self, level,
                                                                  length):
        priv = elgamal.generate_keypair(level, random.Random(length))
        message = random.Random(-length).randbytes(length)
        for seed in range(3):       # the first call builds the comb
            got = elgamal.encrypt_bytes(priv.public_key, message,
                                        random.Random(seed))
            want = ref.elgamal_encrypt_bytes(priv.public_key, message,
                                             random.Random(seed))
            assert got == want
            assert elgamal.decrypt_bytes(priv, got) == message

    def test_elgamal_encrypt_element_equals_pow(self):
        group = group_for_level("TOY")
        priv = elgamal.generate_keypair("TOY", random.Random(11))
        pub = priv.public_key
        for seed in range(4):
            message = group.exp(seed + 2)
            c1, c2 = elgamal.encrypt_element(pub, message, random.Random(seed))
            r = group.random_scalar(random.Random(seed))
            assert (c1, c2) == (group.exp(r),
                                message * pow(pub.h, r, group.p) % group.p)
            assert elgamal.decrypt_element(priv, (c1, c2)) == message

    def test_the_comb_is_not_part_of_an_elgamal_key(self):
        priv = elgamal.generate_keypair("TOY", random.Random(12))
        used = priv.public_key
        fresh = elgamal.ElGamalPublicKey(used.group, used.h)
        elgamal.encrypt_bytes(used, b"m", random.Random(0))
        assert used._comb[1] == used.h and fresh._comb == ()
        assert used == fresh and hash(used) == hash(fresh)
        assert repr(used) == repr(fresh)
        assert priv.public_key is used
