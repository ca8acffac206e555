"""The pairing engine vs the frozen reference oracle.

``repro.curve.pairing`` must be *observationally identical* to the seed
implementation preserved in ``tests/pairing_oracle.py``: each
straight-line F_q12 kernel against the oracle's loop-based dense product,
randomized equivalence on full pairings, final exponentiation and
post-final-exp Miller loops (the raw loop outputs differ by a per-line
F_q2 normalisation that the final exp annihilates), the interleaved
k-pair loop against the product of one-pair loops, GT goldens recorded
before the kernels were rewritten, plus bilinearity, degenerate inputs,
prepared-G2 bit-identity and the engine kernel's telemetry accounting.
"""

import hashlib
import importlib
import random

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from repro import telemetry
from repro.backend import Engine
from repro.curve import fq12 as k
from repro.curve.fq import Q
from repro.curve.fq12 import FQ12_ONE, FQ12_ZERO, fq12_eq, fq12_pow
from repro.curve.g1 import G1
from repro.curve.g2 import G2
from repro.errors import CurveError
from repro.field.fr import MODULUS as R
from tests import pairing_oracle as ref

# The package re-exports the `pairing` function as an attribute, which
# shadows the submodule on `from repro.curve import pairing`.
fast = importlib.import_module("repro.curve.pairing")

_rng = random.Random(0xC0FFEE)

#: Coefficients that stress the lazy reduction: the extremes and 0/1 are
#: drawn as often as a random residue.
_coeff = st.one_of(st.sampled_from([0, 1, Q - 1]), st.integers(0, Q - 1))
_elem = st.tuples(*[_coeff] * 12)
_FQ12_MAX = (Q - 1,) * 12


def _gt_sha256(gt: tuple) -> str:
    return hashlib.sha256(b"".join(c.to_bytes(32, "big") for c in gt)).hexdigest()


def _easy_part(a: tuple) -> tuple:
    """``a^((q^6-1)(q^2+1))`` on the oracle's arithmetic: lands in the
    cyclotomic subgroup, the only place Granger-Scott squaring holds."""
    f = ref.fq12_mul(k.fq12_conjugate(a), ref.fq12_inv_euclid(a))
    return ref.fq12_mul(k.fq12_frobenius(f, 2), f)


def _rand_pair():
    a = _rng.randrange(1, R)
    b = _rng.randrange(1, R)
    return G1.generator() * a, G2.generator() * b


@pytest.fixture(autouse=True)
def _clean_telemetry():
    previous = telemetry.set_level("off")
    telemetry.reset_metrics()
    yield
    telemetry.set_level(previous)
    telemetry.reset_metrics()


class TestKernels:
    """Each straight-line kernel vs the oracle's loop-based dense product."""

    @given(_elem, _elem)
    @example(FQ12_ONE, FQ12_ONE)
    @example(FQ12_ZERO, _FQ12_MAX)
    @example(_FQ12_MAX, _FQ12_MAX)
    @settings(max_examples=60, deadline=None)
    def test_mul_matches_dense_product(self, a, b):
        assert k.fq12_mul(a, b) == ref.fq12_mul(a, b)

    @given(_elem)
    @example(FQ12_ONE)
    @example(FQ12_ZERO)
    @example(_FQ12_MAX)
    @settings(max_examples=60, deadline=None)
    def test_square_matches_dense_product(self, a):
        assert k.fq12_square(a) == ref.fq12_mul(a, a)

    @given(_elem, _coeff, _coeff, _coeff, _coeff)
    @example(FQ12_ONE, 0, 0, 0, 0)
    @example(_FQ12_MAX, Q - 1, Q - 1, Q - 1, Q - 1)
    @settings(max_examples=60, deadline=None)
    def test_line_product_matches_dense_product_with_embedded_line(self, a, l1, l3, l7, l9):
        line = (1, l1, 0, l3, 0, 0, 0, l7, 0, l9, 0, 0)
        assert k.fq12_mul_line(a, l1, l3, l7, l9) == ref.fq12_mul(a, line)

    def test_line_coefficients_are_the_flat_image_of_the_tower_line(self):
        # 1 + e1 w + e3 w^3 with e1, e3 in F_q2, through the tower view.
        e1 = (_rng.randrange(Q), _rng.randrange(Q))
        e3 = (_rng.randrange(Q), _rng.randrange(Q))
        zero = (0, 0)
        line = k.fq12_from_tower([(1, 0), e1, zero, e3, zero, zero])
        a = tuple(_rng.randrange(Q) for _ in range(12))
        got = k.fq12_mul_line(a, line[1], line[3], line[7], line[9])
        assert got == ref.fq12_mul(a, line)

    @given(_elem)
    @example(FQ12_ONE)
    @example(_FQ12_MAX)
    @settings(max_examples=25, deadline=None)
    def test_cyclotomic_square_matches_dense_product_after_easy_part(self, a):
        assume(a != FQ12_ZERO)
        f = _easy_part(a)
        assert k.fq12_cyclotomic_square(f) == ref.fq12_mul(f, f)

    def test_cyclotomic_exp_matches_pow(self):
        f = _easy_part(tuple(_rng.randrange(Q) for _ in range(12)))
        # 3 and BN_U carry negative NAF digits; 1 and 2 have no digit
        # below the top to walk.
        for e in (_rng.randrange(1 << 64), 1, 2, 3, fast.BN_U):
            assert k.fq12_cyclotomic_exp(f, e) == fq12_pow(f, e)
            assert k.fq12_cyclotomic_exp(f, -e) == fq12_pow(k.fq12_conjugate(f), e)

    def test_naf_digits(self):
        for e in (0, 1, 2, 3, 7, fast.BN_U, fast.ATE_LOOP_COUNT, _rng.randrange(1 << 130)):
            digits = k.naf_digits(e)
            assert sum(d << i for i, d in enumerate(digits)) == e
            assert set(digits) <= {-1, 0, 1}
            assert not any(a and b for a, b in zip(digits, digits[1:]))
            assert not digits or digits[-1] == 1


class TestEquivalence:
    def test_loop_constants_match(self):
        assert fast.ATE_LOOP_COUNT == ref.ATE_LOOP_COUNT
        assert fast.FINAL_EXP == ref.FINAL_EXP
        assert fast.ATE_LOOP_COUNT == 6 * fast.BN_U + 2

    def test_full_pairing_matches_reference(self):
        for _ in range(2):
            p, q = _rand_pair()
            assert fast.pairing(p, q) == ref.pairing(p, q)

    def test_miller_loop_matches_after_final_exp(self):
        # Raw loop outputs differ by an F_q2 scaling per line (projective
        # vs affine lines); the final exponentiation kills the difference.
        p, q = _rand_pair()
        fast_ml = fast.miller_loop(q, p)
        ref_ml = ref.miller_loop(q, p)
        assert fq12_eq(ref.final_exponentiation(fast_ml), ref.final_exponentiation(ref_ml))

    def test_final_exponentiation_matches_reference(self):
        # The decomposed final exp must equal the plain power for *any*
        # input, not just Miller outputs.
        p, q = _rand_pair()
        for x in (fast.miller_loop(q, p), tuple(_rng.randrange(Q) for _ in range(12))):
            assert fast.final_exponentiation(x) == ref.final_exponentiation(x)
            assert fast.final_exponentiation(x) == fq12_pow(x, fast.FINAL_EXP)

    def test_pairing_check_matches_reference(self):
        p, q = _rand_pair()
        a = _rng.randrange(2, 1000)
        good = [(p * a, q), (-p, q * a)]
        bad = [(p * a, q), (-p, q * (a + 1))]
        assert fast.pairing_check(good) and ref.pairing_check(good)
        assert not fast.pairing_check(bad) and not ref.pairing_check(bad)

    def test_gt_goldens_recorded_before_the_kernel_rewrite(self):
        # GT values are serialised and hashed downstream; recorded at
        # f159c58, the last commit with the loop-based kernels (a Groth16
        # key's e(alpha, beta) is pinned in tests/test_groth16.py).
        assert _gt_sha256(fast.pairing(G1.generator(), G2.generator())) == (
            "5311faff1dd5b1ffb25301832ff952f5eca7de688000b864642bb986f3957278"
        )


class TestPairingProperties:
    def test_bilinearity(self):
        p, q = G1.generator() * 3, G2.generator() * 5
        a, b = 1234, 5678
        e_ab = fast.pairing(p * a, q * b)
        e = fast.pairing(p, q)
        assert fq12_eq(e_ab, fq12_pow(e, a * b))
        assert fq12_eq(fast.pairing(p * a, q), fast.pairing(p, q * a))

    def test_nondegenerate(self):
        assert not fq12_eq(fast.pairing(G1.generator(), G2.generator()), FQ12_ONE)

    def test_infinity_inputs(self):
        p, q = _rand_pair()
        inf1 = G1.identity()
        inf2 = G2.identity()
        assert fq12_eq(fast.pairing(inf1, q), FQ12_ONE)
        assert fq12_eq(fast.pairing(p, inf2), FQ12_ONE)
        assert fast.pairing_check([(inf1, q), (p, inf2)])

    def test_pairing_type_errors(self):
        p, q = _rand_pair()
        with pytest.raises(CurveError):
            fast.pairing(q, p)
        with pytest.raises(CurveError):
            fast.prepare_g2(p)


class TestPreparedG2:
    def test_prepared_matches_unprepared_bit_for_bit(self):
        p, q = _rand_pair()
        prep = fast.prepare_g2(q)
        assert fast.miller_loop_prepared(prep, p) == fast.miller_loop(q, p)

    def test_prepared_infinity(self):
        prep = fast.prepare_g2(G2.identity())
        assert prep.inf and prep.lines == ()
        assert fast.miller_loop_prepared(prep, G1.generator()) == FQ12_ONE

    def test_one_normalised_line_per_step(self):
        prep = fast.prepare_g2(G2.generator() * 5)
        steps = fast._ATE_STEPS
        # Replay the schedule on integers: R starts at Q (multiple 1) and
        # must reach 6u + 2 before the two Frobenius-twisted additions.
        multiple = 1
        for step in steps[:-2]:
            if step == fast._DOUBLE:
                multiple *= 2
            else:
                multiple += {fast._ADD_Q: 1, fast._SUB_Q: -1}[step]
        assert multiple == fast.ATE_LOOP_COUNT
        assert steps[-2:] == (fast._ADD_PI_Q, fast._ADD_NEG_PI2_Q)
        # One doubling per bit below the top, one line per non-zero
        # signed digit below the top, two closing lines.
        doublings = steps.count(fast._DOUBLE)
        signed = steps.count(fast._ADD_Q) + steps.count(fast._SUB_Q)
        assert doublings == fast.ATE_LOOP_COUNT.bit_length() - 1
        assert signed < bin(fast.ATE_LOOP_COUNT).count("1") - 1
        assert len(prep.lines) == len(steps) == doublings + signed + 2 == 87
        assert all(len(line) == 4 and all(0 <= c < Q for c in line) for line in prep.lines)

    def test_degenerate_line_is_a_curve_error(self):
        # No r-torsion point degenerates, and the twist has odd order, so
        # forge what the constructor refuses: y = 0 makes the very first
        # tangent vertical (c0 = -2yz = 0).
        forged = object.__new__(G2)
        for name, value in (("x", (1, 0)), ("y", (0, 0)), ("inf", False)):
            object.__setattr__(forged, name, value)
        with pytest.raises(CurveError, match="degenerate"):
            fast.prepare_g2(forged)

    def test_multi_miller_loop_accepts_mixed_inputs(self):
        p, q = _rand_pair()
        a = 77
        pairs_raw = [(p * a, q), (-p, q * a)]
        pairs_mixed = [(p * a, fast.prepare_g2(q)), (-p, q * a)]
        assert fast.multi_miller_loop(pairs_raw) == fast.multi_miller_loop(pairs_mixed)
        assert fast.pairing_check(pairs_mixed)


class TestInterleavedLoop:
    """One accumulator for k pairs == the product of k one-pair loops."""

    @staticmethod
    def _product(pairs):
        acc = FQ12_ONE
        for p, q in pairs:
            acc = ref.fq12_mul(acc, fast.miller_loop(q, p))
        return acc

    def test_k_pairs_equal_the_product_of_one_pair_loops_exactly(self):
        pairs = [_rand_pair() for _ in range(4)]
        for count in range(1, 5):
            # Squaring distributes over the product, so the raw Miller
            # values agree, not just their final exponentiations.
            assert fast.multi_miller_loop(pairs[:count]) == self._product(pairs[:count])

    def test_infinity_members_in_every_position(self):
        pairs = [_rand_pair() for _ in range(3)]
        expected = self._product(pairs)
        for pos in range(4):
            for hole in ((G1.identity(), G2.generator()), (G1.generator(), G2.identity())):
                padded = pairs[:pos] + [hole] + pairs[pos:]
                assert fast.multi_miller_loop(padded) == expected

    def test_all_infinity_product_is_one(self):
        holes = [(G1.identity(), G2.generator()), (G1.generator(), G2.identity())]
        assert fast.multi_miller_loop(holes) is FQ12_ONE
        assert fast.multi_miller_loop([]) is FQ12_ONE
        assert fast.pairing_check(holes)

    def test_three_pair_product_and_a_tampered_member(self):
        p, q = G1.generator(), G2.generator()
        a, b = _rng.randrange(2, R), _rng.randrange(2, R)
        good = [(p * a, q), (p * b, q), (-p, q * ((a + b) % R))]
        assert fast.pairing_check(good)
        for pos in range(3):
            bad = list(good)
            bad[pos] = (bad[pos][0] + p, bad[pos][1])
            assert not fast.pairing_check(bad)


class TestEngineKernel:
    def _pairs(self):
        p = G1.generator() * 9
        q = G2.generator() * 4
        return [(p * 21, q), (-p, q * 21)]

    def test_engine_check_and_cache_accounting(self):
        telemetry.set_level("on")
        engine = Engine()
        pairs = self._pairs()
        assert engine.pairing_check(pairs)
        assert engine.pairing_check(pairs)  # second call: all G2 prepared
        counters = telemetry.registry().counter_values()
        assert counters["engine.pairing.calls"] == 2
        assert counters["engine.cache.misses{cache=prepared_g2}"] == 2
        assert counters["engine.cache.hits{cache=prepared_g2}"] == 2
        hist = telemetry.registry().histogram("engine.pairing.pairs")
        assert hist.count == 2 and hist.total == 4

    def test_engine_check_target(self):
        engine = Engine()
        p, q = G1.generator() * 5, G2.generator() * 8
        target = fast.pairing(p, q)
        assert engine.pairing_check([(p, q)], target=target)
        assert not engine.pairing_check([(p, q)], target=FQ12_ONE)

    def test_prepared_cache_evicts_lru(self):
        engine = Engine()
        engine.prepared_g2_capacity = 2
        qs = [G2.generator() * k for k in (2, 3, 4)]
        for q in qs:
            engine.prepared_g2(q)
        assert len(engine._prepared_g2_cache) == 2
        telemetry.set_level("on")
        engine.prepared_g2(qs[0])  # evicted: a miss again
        counters = telemetry.registry().counter_values()
        assert counters["engine.cache.misses{cache=prepared_g2}"] == 1

    def test_parallel_and_serial_report_identical_totals(self):
        pairs = self._pairs()

        def measured(engine):
            telemetry.reset_metrics()
            assert engine.pairing_check(pairs)
            assert engine.pairing_check(pairs)
            return telemetry.registry().counter_values()

        telemetry.set_level("on")
        serial_counts = measured(Engine())
        with Engine(helpers=1) as split:
            split_counts = measured(split)
        assert serial_counts == split_counts
        assert serial_counts["engine.pairing.calls"] == 2
