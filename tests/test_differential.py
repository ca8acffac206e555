"""Randomized differential tests: fast paths against reference oracles.

The compute-backend layer promises that engine choice is unobservable
(``SplitEngine`` bit-identical to ``SerialEngine``) and the Fq2-tower
Miller loop promises equality with the slow reference pairing.  The unit
suites pin those claims on fixed vectors; this suite stresses them on
*randomized* inputs drawn from the shared ``chaos_seed`` fixture, so CI's
chaos job sweeps a fresh region of the input space on every run while any
failure replays from the seed echoed in the test report.
"""

import random

import pytest

from repro.backend import SerialEngine, SplitEngine
from repro.backend.split import MIN_MSM_POINTS
from repro.curve import glv
from repro.curve.g1 import G1, jac_add, jac_mul, jac_to_affine
from repro.curve.g2 import G2
from repro.curve.msm import FIXED_WINDOW_MAX, msm_jacobian
from repro.field.fr import MODULUS as R
from repro.field.ntt import COSET_SHIFT, Domain, _ntt_in_place
from repro.groth16 import groth16_prove, groth16_setup, groth16_verify
from repro.groth16 import protocol as groth16_protocol
from repro.kzg.srs import SRS
from repro.plonk.keys import DEGREE_MARGIN
from repro.r1cs import R1CSBuilder
from tests import pairing_oracle, substrate_oracle

pytestmark = [pytest.mark.differential, pytest.mark.usefixtures("lone_thread_at_fork")]


@pytest.fixture(scope="module")
def engines():
    serial = SerialEngine()
    split = SplitEngine(helpers=1)
    yield serial, split
    split.close()


def _rng(chaos_seed, salt):
    return random.Random("%d:%s" % (chaos_seed, salt))


class TestEngineDifferential:
    """SplitEngine vs SerialEngine on randomized inputs."""

    def test_ntt_roundtrip_and_equivalence(self, engines, chaos_seed):
        serial, split = engines
        rng = _rng(chaos_seed, "ntt")
        jobs = []
        for _ in range(4):
            n = 1 << rng.randint(2, 9)
            coeffs = [rng.randrange(R) for _ in range(n)]
            jobs.append(("fft", n, coeffs, 0))
            jobs.append(("ifft", n, coeffs, 0))
            jobs.append(("coset_fft", n, coeffs, COSET_SHIFT))
            jobs.append(("coset_ifft", n, coeffs, COSET_SHIFT))
        out_s = serial.ntt_batch(jobs)
        out_p = split.ntt_batch(jobs)
        assert out_s == out_p
        # Forward/inverse really are inverses on the same random vector.
        for i in range(0, len(jobs), 4):
            _kind, n, coeffs, _shift = jobs[i]
            assert serial.ntt_batch([("ifft", n, out_s[i], 0)])[0] == coeffs

    def test_msm_g1_matches_naive(self, engines, chaos_seed):
        serial, split = engines
        rng = _rng(chaos_seed, "msm1")
        n = rng.randint(1, 160)
        points = [G1.generator() * rng.randrange(1, R) for _ in range(n)]
        scalars = [rng.choice([0, 1, R - 1, rng.randrange(R)]) for _ in range(n)]
        naive = G1.identity()
        for p, s in zip(points, scalars):
            naive = naive + p * s
        got_s = serial.msm_g1(points, scalars)
        got_p = split.msm_g1(points, scalars)
        assert got_s == naive
        assert got_p == naive
        assert got_s.to_bytes() == got_p.to_bytes()

    def test_msm_g2_matches_naive(self, engines, chaos_seed):
        serial, split = engines
        rng = _rng(chaos_seed, "msm2")
        n = rng.randint(1, 12)
        points = [G2.generator() * rng.randrange(1, R) for _ in range(n)]
        scalars = [rng.choice([0, 1, R - 1, rng.randrange(R)]) for _ in range(n)]
        naive = G2.identity()
        for p, s in zip(points, scalars):
            naive = naive + p * s
        assert serial.msm_g2(points, scalars) == naive
        assert split.msm_g2(points, scalars) == naive

    def test_batch_inverse_against_fermat(self, engines, chaos_seed):
        serial, split = engines
        rng = _rng(chaos_seed, "inv")
        values = [rng.randrange(1, R) for _ in range(rng.randint(1, 700))]
        inv_s = serial.batch_inverse(values)
        inv_p = split.batch_inverse(values)
        assert inv_s == inv_p
        for v, v_inv in zip(values, inv_s):
            assert v_inv == pow(v, R - 2, R)

    def test_fixed_base_mul_matches_generic(self, engines, chaos_seed):
        serial, split = engines
        rng = _rng(chaos_seed, "fb")
        for base in (G1.generator(), G2.generator()):
            for _ in range(4):
                k = rng.choice([0, 1, R - 1, rng.randrange(R)])
                expected = base * k
                assert serial.fixed_base_mul(base, k) == expected
                assert split.fixed_base_mul(base, k) == expected


class TestSubstrateDifferential:
    """The data plane (GLV, lazy NTT, window tables, the helper split) vs
    the naive comparators in ``tests/substrate_oracle.py`` and the serial
    engine — bit for bit."""

    def test_glv_decomposition_reconstructs_and_is_short(self, chaos_seed):
        rng = _rng(chaos_seed, "glv-split")
        for k in [0, 1, 2, R - 1, glv.LAMBDA, R - glv.LAMBDA] + [
            rng.randrange(R) for _ in range(64)
        ]:
            k1, k2 = glv.decompose(k)
            assert (k1 + k2 * glv.LAMBDA) % R == k % R
            assert abs(k1).bit_length() <= glv.HALF_BITS
            assert abs(k2).bit_length() <= glv.HALF_BITS

    def test_glv_mul_equals_double_and_add(self, chaos_seed):
        rng = _rng(chaos_seed, "glv-mul")
        for _ in range(12):
            p = (G1.generator() * rng.randrange(1, R)).to_jacobian()
            k = rng.choice([0, 1, R - 1, glv.LAMBDA, rng.randrange(R)])
            assert jac_to_affine(glv.glv_jac_mul(p, k)) == jac_to_affine(jac_mul(p, k))

    def test_g1_mul_identical_across_substrate_modes(self, chaos_seed):
        rng = _rng(chaos_seed, "glv-g1")
        p = G1.generator() * rng.randrange(1, R)
        for _ in range(6):
            k = rng.randrange(R)
            assert (p * k).to_bytes() == substrate_oracle.g1_mul(p, k).to_bytes()

    def test_fast_ntt_butterflies_bit_identical(self, chaos_seed):
        rng = _rng(chaos_seed, "ntt-lazy")
        for _ in range(4):
            n = 1 << rng.randint(1, 10)
            dom = Domain.get(n)
            values = [rng.randrange(R) for _ in range(n)]
            ref = list(values)
            fast = list(values)
            substrate_oracle.ntt_in_place_ref(ref, dom._twiddles)
            _ntt_in_place(fast, dom._twiddles)
            assert fast == ref

    def test_msm_srs_and_fixed_table_kernels_match_msm_jac(self, engines, chaos_seed):
        serial, split = engines
        rng = _rng(chaos_seed, "srs-msm")

        class _FakeSRS:
            def __init__(self, points):
                self.g1_powers = points

        n = rng.randint(140, 180)
        powers = [G1.generator() * rng.randrange(1, R) for _ in range(n)]
        srs = _FakeSRS(powers)
        coeffs = [rng.randrange(R) for _ in range(rng.randint(MIN_MSM_POINTS, n))]
        expected = serial.msm_jac(
            [p.to_jacobian() for p in powers[: len(coeffs)]], coeffs
        )
        for eng in (serial, split):
            got = eng.msm_srs(srs, coeffs)
            assert jac_to_affine(got) == jac_to_affine(expected)
            table = tuple(powers)
            got_fixed = eng.msm_g1_fixed(table, coeffs)
            assert got_fixed.to_bytes() == G1.from_jacobian(expected).to_bytes()
        # Both table paths were split with the forked helper, which was
        # re-forked when the second table appeared.
        assert split.live_helpers() == 1
        assert set(split._forked_rows) >= {id(srs), id(table)}

    def test_table_path_equals_generic_across_the_blinding_margin(self, chaos_seed):
        """The prefix lengths an n=2048 circuit commits to (n .. n +
        DEGREE_MARGIN scalars): pinned window tables == generic GLV bucket
        MSM == the oracle's term-by-term double-and-add sum."""
        rng = _rng(chaos_seed, "margin-msm")
        top = 2048 + DEGREE_MARGIN
        assert top == FIXED_WINDOW_MAX
        srs = SRS.generate(top, tau=rng.randrange(1, R))
        engine = SerialEngine()
        points = engine.srs_g1_jacobian(srs)
        scalars = [rng.randrange(R) for _ in range(top)]
        naive = substrate_oracle.msm_naive(points[:2047], scalars[:2047])
        for length in range(2048, top + 1):
            naive = jac_add(naive, jac_mul(points[length - 1], scalars[length - 1]))
            table = engine.msm_srs(srs, scalars[:length])
            generic = msm_jacobian(list(points[:length]), scalars[:length])
            assert jac_to_affine(table) == jac_to_affine(generic) == jac_to_affine(naive)
        assert len(engine._window_tables[id(srs)][2]) == top

    def test_full_engines_identical_under_both_substrate_modes(
        self, engines, chaos_seed, monkeypatch
    ):
        """Both engines against the oracle on a generic MSM and an NTT,
        then one Groth16 proof wide enough (>= ``MIN_MSM_POINTS``
        variables) that the split engine shares every query-table MSM
        with its helper: byte-identical to the serial engine's.  (The id
        predates PR 21: there is one substrate.)"""
        serial, split = engines
        rng = _rng(chaos_seed, "modes")
        n = rng.randint(130, 170)
        points = [G1.generator() * rng.randrange(1, R) for _ in range(n)]
        scalars = [rng.randrange(R) for _ in range(n)]
        coeffs = [rng.randrange(R) for _ in range(64)]
        jobs = [("coset_fft", 64, coeffs, COSET_SHIFT)]
        ref_msm = G1.from_jacobian(
            substrate_oracle.msm_naive([p.to_jacobian() for p in points], scalars)
        )
        ref_ntt = [c * pow(COSET_SHIFT, i, R) % R for i, c in enumerate(coeffs)]
        substrate_oracle.ntt_in_place_ref(ref_ntt, Domain.get(64).tables()[0])
        for eng in (serial, split):
            assert eng.msm_g1(points, scalars).to_bytes() == ref_msm.to_bytes()
            assert eng.ntt_batch(list(jobs)) == [ref_ntt]

        builder = R1CSBuilder()
        seed, squarings = rng.randrange(2, R), MIN_MSM_POINTS + 2
        out = builder.public_input(pow(seed, 1 << squarings, R))
        w = builder.var(seed)
        for _ in range(squarings):
            w = builder.mul(w, w)
        builder.assert_equal(w, out)
        system, witness = builder.compile()
        pk, vk = groth16_setup(system, engine=serial)
        proofs = []
        for eng in (serial, split):
            blinders = iter((5, 7))  # the prover's r and s, the same for both
            monkeypatch.setattr(
                groth16_protocol, "random_scalar", lambda nonzero=False: next(blinders)
            )
            proofs.append(groth16_prove(pk, witness, engine=eng))
        assert [pt.to_bytes() for pt in (proofs[0].a, proofs[0].b, proofs[0].c)] == [
            pt.to_bytes() for pt in (proofs[1].a, proofs[1].b, proofs[1].c)
        ]
        assert groth16_verify(vk, witness.public_inputs, proofs[1], engine=serial)
        assert split.live_helpers() == 1
        assert split._forked_rows[id(pk.a_query)] >= MIN_MSM_POINTS


@pytest.mark.slow
class TestPairingDifferential:
    """The pairing engine vs the reference oracle (``tests/pairing_oracle.py``)."""

    def test_fast_equals_reference_on_random_points(self, engines, chaos_seed):
        serial, split = engines
        rng = _rng(chaos_seed, "pair")
        for _ in range(3):
            p = G1.generator() * rng.randrange(1, R)
            q = G2.generator() * rng.randrange(1, R)
            ref = pairing_oracle.pairing(p, q)
            assert serial.pairing(p, q) == ref
            assert split.pairing(p, q) == ref

    def test_bilinearity_under_random_scalars(self, engines, chaos_seed):
        serial, _ = engines
        rng = _rng(chaos_seed, "bilin")
        a = rng.randrange(2, R)
        b = rng.randrange(2, R)
        p, q = G1.generator(), G2.generator()
        # e(aP, bQ) == e(abP, Q) == e(P, abQ)
        lhs = serial.pairing(p * a, q * b)
        assert lhs == serial.pairing(p * (a * b % R), q)
        assert lhs == serial.pairing(p, q * (a * b % R))

    def test_pairing_check_random_cancellation(self, engines, chaos_seed):
        serial, split = engines
        rng = _rng(chaos_seed, "check")
        a = rng.randrange(2, R)
        p, q = G1.generator(), G2.generator()
        # e(aP, Q) * e(-P, aQ) == 1
        pairs = [(p * a, q), (-(p), q * a)]
        assert serial.pairing_check(pairs)
        assert split.pairing_check(pairs)
        bad = [(p * a, q), (-(p), q * ((a + 1) % R))]
        assert not serial.pairing_check(bad)
        assert not split.pairing_check(bad)
