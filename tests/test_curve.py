"""Tests for the BN254 curve substrate: groups, MSM, tower fields, pairing."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.curve import G1, G2, msm_g1, pairing, pairing_check
from repro.curve.fq import FQ2_ONE, Q, fq2_inv, fq2_mul, fq2_pow
from repro.curve.fq12 import FQ12_ONE, fq12, fq12_eq, fq12_inv, fq12_mul, fq12_pow
import random

from repro.backend.split import SplitEngine
from repro.backend.serial import SerialEngine
from repro.curve import glv
from repro.curve.fq import fq_inv
from repro.curve.g1 import JAC_INF, jac_add, jac_mul, jac_to_affine
from repro.curve.msm import STRAUS_MAX, _wnaf, msm_jacobian
from repro.errors import CurveError, FieldError, ReproError
from repro.field import fr
from repro.field.fr import MODULUS as R

scalars = st.integers(min_value=0, max_value=R - 1)


def _encodings(group, coords):
    """Real points with ``m * q`` added to each coordinate where it still
    fits in 32 bytes (``m = 0`` is the canonical form), and raw bytes."""

    @st.composite
    def shifted(draw):
        data = (group.generator() * draw(scalars)).to_bytes()
        out = b""
        for i in range(coords):
            c = int.from_bytes(data[32 * i : 32 * i + 32], "little")
            c += draw(st.integers(min_value=0, max_value=5)) * Q
            out += (c if c < 1 << 256 else c % Q).to_bytes(32, "little")
        return out

    return st.one_of(shifted(), st.binary(min_size=32 * coords, max_size=32 * coords))


def _assert_decodes_injectively(group, data):
    try:
        point = group.from_bytes(data)
    except ReproError:
        return
    assert point.to_bytes() == data


class TestG1:
    def test_generator_on_curve_and_order(self):
        g = G1.generator()
        assert (g * R).inf
        assert not (g * (R - 1)).inf

    def test_group_law(self):
        g = G1.generator()
        assert g + g == g * 2
        assert g * 2 + g == g * 3
        assert g - g == G1.identity()
        assert g + G1.identity() == g
        assert -(-g) == g
        assert (g * 5) + (g * 7) == g * 12

    @given(scalars, scalars)
    @settings(max_examples=10, deadline=None)
    def test_scalar_mul_distributes(self, a, b):
        g = G1.generator()
        assert g * a + g * b == g * ((a + b) % R)

    def test_rejects_off_curve_point(self):
        with pytest.raises(CurveError):
            G1(1, 3)

    def test_serialisation_roundtrip(self):
        g = G1.generator() * 12345
        assert G1.from_bytes(g.to_bytes()) == g
        assert G1.from_bytes(G1.identity().to_bytes()).inf
        with pytest.raises(CurveError):
            G1.from_bytes(b"\x01" * 63)

    @given(_encodings(G1, 2))
    @settings(max_examples=60, deadline=None)
    def test_decoding_is_injective(self, data):
        _assert_decodes_injectively(G1, data)

    def test_scalar_reduced_mod_r(self):
        g = G1.generator()
        assert g * (R + 3) == g * 3
        assert (g * 0).inf


class TestG2:
    def test_generator_on_curve_and_order(self):
        h = G2.generator()
        assert (h * R).inf
        assert h.in_subgroup()

    def test_group_law(self):
        h = G2.generator()
        assert h + h == h * 2
        assert h * 3 - h == h * 2
        assert h + G2.identity() == h
        assert -(-h) == h

    def test_rejects_off_curve_point(self):
        with pytest.raises(CurveError):
            G2((1, 0), (1, 0))

    def test_serialisation_roundtrip(self):
        h = G2.generator() * 99
        assert G2.from_bytes(h.to_bytes()) == h
        assert G2.from_bytes(G2.identity().to_bytes()).inf

    @given(_encodings(G2, 4))
    @settings(max_examples=30, deadline=None)
    def test_decoding_is_injective(self, data):
        _assert_decodes_injectively(G2, data)


class TestTowerFields:
    def test_fq2_inverse(self):
        a = (12345, 67890)
        assert fq2_mul(a, fq2_inv(a)) == FQ2_ONE

    def test_fq2_frobenius_is_conjugation(self):
        a = (12345, 67890)
        frob = fq2_pow(a, Q)
        assert frob == (a[0], -a[1] % Q)

    def test_fq12_mul_one_and_inverse(self):
        a = fq12(list(range(1, 13)))
        assert fq12_eq(fq12_mul(a, FQ12_ONE), a)
        assert fq12_eq(fq12_mul(a, fq12_inv(a)), FQ12_ONE)

    def test_fq12_pow_laws(self):
        a = fq12([3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8])
        assert fq12_eq(fq12_mul(fq12_pow(a, 5), fq12_pow(a, 7)), fq12_pow(a, 12))
        assert fq12_eq(fq12_pow(a, 0), FQ12_ONE)

    def test_fq12_associativity(self):
        a = fq12(list(range(2, 14)))
        b = fq12(list(range(5, 17)))
        c = fq12(list(range(11, 23)))
        assert fq12_eq(fq12_mul(fq12_mul(a, b), c), fq12_mul(a, fq12_mul(b, c)))


class TestMSM:
    def test_msm_matches_naive(self):
        g = G1.generator()
        points = [g * i for i in range(1, 40)]
        ks = [(i * 7919 + 13) % R for i in range(1, 40)]
        expected = G1.identity()
        for p, k in zip(points, ks):
            expected = expected + p * k
        assert msm_g1(points, ks) == expected

    def test_msm_empty_and_zero_scalars(self):
        assert msm_g1([], []) == G1.identity()
        g = G1.generator()
        assert msm_g1([g, g * 2], [0, 0]) == G1.identity()

    def test_msm_single_point(self):
        g = G1.generator()
        assert msm_g1([g], [42]) == g * 42

    def test_msm_mismatched_lengths(self):
        with pytest.raises(CurveError):
            msm_g1([G1.generator()], [1, 2])

    def test_msm_jacobian_with_infinity(self):
        g = G1.generator().to_jacobian()
        inf = (1, 1, 0)
        out = msm_jacobian([g, inf], [5, 9])
        assert G1.from_jacobian(out) == G1.generator() * 5


def _naive_msm(points, ks):
    acc = JAC_INF
    for p, k in zip(points, ks):
        acc = jac_add(acc, jac_mul(p, k))
    return jac_to_affine(acc)


class TestStraus:
    """The interleaved wNAF kernel behind ``msm_jacobian`` for folds of up
    to ``STRAUS_MAX`` terms, against plain double-and-add at the affine
    level, on both sides of the crossover and on every degenerate term."""

    rng = random.Random(0x57A05)

    def _points(self, n):
        return [jac_mul((1, 2, 1), self.rng.randrange(1, R)) for _ in range(n)]

    def _check(self, points, ks):
        assert jac_to_affine(msm_jacobian(points, ks)) == _naive_msm(points, ks)

    def test_wnaf_digits(self):
        ks = [1, 2, 31, 32, 1 << 127, (1 << 129) - 1]
        ks += [self.rng.randrange(1, 1 << 129) for _ in range(50)]
        for k in ks:
            digits = _wnaf(k)
            assert sum(d << pos for pos, d in digits) == k
            assert all(d % 2 == 1 and abs(d) < 16 for _, d in digits)
            assert all(b - a >= 5 for (a, _), (b, _) in zip(digits, digits[1:]))
            assert digits[-1][0] <= glv.HALF_BITS

    @pytest.mark.parametrize("n", [1, 2, 19, 21, STRAUS_MAX, STRAUS_MAX + 1])
    def test_random_terms_match_naive(self, n):
        self._check(self._points(n), [self.rng.randrange(R) for _ in range(n)])

    def test_one_point_many_times(self):
        (p,) = self._points(1)
        self._check([p] * STRAUS_MAX, [self.rng.randrange(R) for _ in range(STRAUS_MAX)])
        self._check([p] * STRAUS_MAX, [5] * STRAUS_MAX)

    def test_point_beside_its_negation(self):
        p, q = self._points(2)
        x, y = jac_to_affine(p)
        k = self.rng.randrange(1, R)
        assert msm_jacobian([p, (x, Q - y, 1)], [k, k])[2] == 0
        self._check([p, q, (x, Q - y, 1)], [k, 7, k])

    def test_identity_points_and_zero_scalars_among_the_terms(self):
        points = self._points(4)
        self._check(points + [JAC_INF], [3, 0, R, 11, 9])
        assert msm_jacobian(points, [0, R, 0, 2 * R])[2] == 0

    @pytest.mark.parametrize("k", [1, 2, R - 1, R, R + 5, glv.LAMBDA, R - glv.LAMBDA])
    def test_boundary_scalars(self, k):
        # lambda and r - lambda split into a GLV half of 0 beside +-1.
        p, q = self._points(2)
        self._check([p], [k])
        self._check([p, q], [k, k])

    def test_unnormalised_input_points(self):
        points = self._points(6)
        assert all(p[2] != 1 for p in points)
        self._check(points, [self.rng.randrange(R) for _ in range(6)])

    def test_engines_agree_across_the_crossover(self):
        """``STRAUS_MAX`` terms are one Straus fold, twice that (and two
        more) a bucket pass; the same terms as a fixed table are one
        window pass at ``STRAUS_MAX`` and two half-width shards — the
        helper's and the caller's — past it.  All of them are the naive
        sum."""
        serial = SerialEngine()
        split = SplitEngine(helpers=1)
        try:
            for n in (STRAUS_MAX, 2 * STRAUS_MAX, 2 * STRAUS_MAX + 2):
                points = self._points(n)
                ks = [self.rng.randrange(R) for _ in range(n)]
                expected = _naive_msm(points, ks)
                assert jac_to_affine(serial.msm_jac(points, ks)) == expected
                assert jac_to_affine(split.msm_jac(points, ks)) == expected
                table = tuple(G1.from_jacobian(p) for p in points)
                for engine in (serial, split):
                    got = engine.msm_g1_fixed(table, ks)
                    assert (got.x, got.y) == expected
            assert split.live_helpers() == 1
        finally:
            split.close()


class TestFieldInverse:
    """One Euclidean inverse per field, behind a zero check that keeps the
    error a ``FieldError``."""

    @pytest.mark.parametrize("inv,p", [(fq_inv, Q), (fr.inv, R)])
    def test_inverse_law_and_reduction(self, inv, p):
        rng = random.Random(p % 1000)
        for a in [1, 2, p - 1, p + 1, 3 * p + 7] + [rng.randrange(1, p) for _ in range(20)]:
            assert 0 < inv(a) < p and inv(a) * a % p == 1
        assert inv(p + 5) == inv(5) == pow(5, p - 2, p)

    @pytest.mark.parametrize("inv,p", [(fq_inv, Q), (fr.inv, R)])
    def test_zero_is_a_field_error(self, inv, p):
        for a in (0, p, 2 * p):
            with pytest.raises(FieldError):
                inv(a)


@pytest.mark.slow
class TestPairing:
    def test_bilinearity(self):
        g1, g2 = G1.generator(), G2.generator()
        lhs = pairing(g1 * 6, g2)
        rhs = pairing(g1, g2 * 6)
        assert fq12_eq(lhs, rhs)
        base = pairing(g1, g2)
        assert fq12_eq(lhs, fq12_pow(base, 6))

    def test_nondegeneracy(self):
        e = pairing(G1.generator(), G2.generator())
        assert not fq12_eq(e, FQ12_ONE)
        assert fq12_eq(fq12_pow(e, R), FQ12_ONE)

    def test_identity_inputs(self):
        assert fq12_eq(pairing(G1.identity(), G2.generator()), FQ12_ONE)
        assert fq12_eq(pairing(G1.generator(), G2.identity()), FQ12_ONE)

    def test_pairing_check_product(self):
        g1, g2 = G1.generator(), G2.generator()
        # e(aG, bH) * e(-abG, H) == 1
        a, b = 5, 11
        assert pairing_check([(g1 * a, g2 * b), (-(g1 * (a * b)), g2)])
        assert not pairing_check([(g1 * a, g2 * b), (-(g1 * (a * b + 1)), g2)])

    def test_pairing_type_check(self):
        with pytest.raises(CurveError):
            pairing(G2.generator(), G1.generator())
