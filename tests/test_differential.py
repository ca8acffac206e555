"""Randomized differential tests: fast paths against reference oracles.

The compute-backend layer promises that engine choice is unobservable
(``ParallelEngine`` bit-identical to ``SerialEngine``) and the Fq2-tower
Miller loop promises equality with the slow reference pairing.  The unit
suites pin those claims on fixed vectors; this suite stresses them on
*randomized* inputs drawn from the shared ``chaos_seed`` fixture, so CI's
chaos job sweeps a fresh region of the input space on every run while any
failure replays from the seed echoed in the test report.
"""

import random

import pytest

from repro.backend import ParallelEngine, SerialEngine, shm
from repro.curve import glv
from repro.curve.g1 import G1, jac_add, jac_mul, jac_to_affine
from repro.curve.g2 import G2
from repro.curve.msm import FIXED_WINDOW_MAX, msm_jacobian
from repro.field.fr import MODULUS as R
from repro.field.ntt import COSET_SHIFT, Domain, _ntt_in_place
from repro.kzg.srs import SRS
from repro.plonk.keys import DEGREE_MARGIN
from tests import pairing_oracle, substrate_oracle

pytestmark = pytest.mark.differential


@pytest.fixture(scope="module")
def engines():
    serial = SerialEngine()
    parallel = ParallelEngine(
        workers=2, min_msm_points=1, min_ntt_jobs=1, min_ntt_size=1, min_inverse_size=1
    )
    yield serial, parallel
    parallel.close()


def _rng(chaos_seed, salt):
    return random.Random("%d:%s" % (chaos_seed, salt))


class TestEngineDifferential:
    """ParallelEngine vs SerialEngine on randomized inputs."""

    def test_ntt_roundtrip_and_equivalence(self, engines, chaos_seed):
        serial, parallel = engines
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
        out_p = parallel.ntt_batch(jobs)
        assert out_s == out_p
        # Forward/inverse really are inverses on the same random vector.
        for i in range(0, len(jobs), 4):
            _kind, n, coeffs, _shift = jobs[i]
            assert serial.ntt_batch([("ifft", n, out_s[i], 0)])[0] == coeffs

    def test_msm_g1_matches_naive(self, engines, chaos_seed):
        serial, parallel = engines
        rng = _rng(chaos_seed, "msm1")
        n = rng.randint(1, 160)
        points = [G1.generator() * rng.randrange(1, R) for _ in range(n)]
        scalars = [rng.choice([0, 1, R - 1, rng.randrange(R)]) for _ in range(n)]
        naive = G1.identity()
        for p, s in zip(points, scalars):
            naive = naive + p * s
        got_s = serial.msm_g1(points, scalars)
        got_p = parallel.msm_g1(points, scalars)
        assert got_s == naive
        assert got_p == naive
        assert got_s.to_bytes() == got_p.to_bytes()

    def test_msm_g2_matches_naive(self, engines, chaos_seed):
        serial, parallel = engines
        rng = _rng(chaos_seed, "msm2")
        n = rng.randint(1, 12)
        points = [G2.generator() * rng.randrange(1, R) for _ in range(n)]
        scalars = [rng.choice([0, 1, R - 1, rng.randrange(R)]) for _ in range(n)]
        naive = G2.identity()
        for p, s in zip(points, scalars):
            naive = naive + p * s
        assert serial.msm_g2(points, scalars) == naive
        assert parallel.msm_g2(points, scalars) == naive

    def test_batch_inverse_against_fermat(self, engines, chaos_seed):
        serial, parallel = engines
        rng = _rng(chaos_seed, "inv")
        values = [rng.randrange(1, R) for _ in range(rng.randint(1, 700))]
        inv_s = serial.batch_inverse(values)
        inv_p = parallel.batch_inverse(values)
        assert inv_s == inv_p
        for v, v_inv in zip(values, inv_s):
            assert v_inv == pow(v, R - 2, R)

    def test_fixed_base_mul_matches_generic(self, engines, chaos_seed):
        serial, parallel = engines
        rng = _rng(chaos_seed, "fb")
        for base in (G1.generator(), G2.generator()):
            for _ in range(4):
                k = rng.choice([0, 1, R - 1, rng.randrange(R)])
                expected = base * k
                assert serial.fixed_base_mul(base, k) == expected
                assert parallel.fixed_base_mul(base, k) == expected


class TestSubstrateDifferential:
    """The data plane (GLV, lazy NTT, window tables, shared memory) vs
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

    def test_shared_memory_msm_equals_pickle_path(self, chaos_seed):
        rng = _rng(chaos_seed, "shm-msm")
        n = rng.randint(130, 200)
        points = [G1.generator() * rng.randrange(1, R) for _ in range(n)]
        scalars = [rng.choice([0, 1, R - 1, rng.randrange(R)]) for _ in range(n)]
        # SerialEngine is the oracle (the test id predates that: it named
        # a pickled dispatch twin that no longer exists).
        shm_engine = ParallelEngine(workers=2, min_msm_points=1)
        try:
            got_shm = shm_engine.msm_g1(points, scalars)
        finally:
            shm_engine.close()
        assert got_shm.to_bytes() == SerialEngine().msm_g1(points, scalars).to_bytes()

    def test_shared_memory_ntt_and_inverse_equal_pickle_path(self, chaos_seed):
        rng = _rng(chaos_seed, "shm-ntt")
        jobs = []
        for _ in range(3):
            n = 1 << rng.randint(4, 9)
            coeffs = [rng.randrange(R) for _ in range(n)]
            jobs.append(("fft", n, coeffs, 0))
            jobs.append(("coset_ifft", n, coeffs, COSET_SHIFT))
        values = [rng.randrange(1, R) for _ in range(300)]
        shm_engine = ParallelEngine(
            workers=2, min_ntt_jobs=1, min_ntt_size=1, min_inverse_size=1
        )
        serial = SerialEngine()
        try:
            assert shm_engine.ntt_batch(list(jobs)) == serial.ntt_batch(list(jobs))
            assert shm_engine.batch_inverse(values) == serial.batch_inverse(values)
        finally:
            shm_engine.close()

    def test_twiddle_tables_from_shm_bit_identical(self, chaos_seed):
        """A Domain rebuilt from packed twiddle tables (the shm worker
        path) is bit-identical to a locally constructed one: same
        twiddles, same transforms — including the coset variants, which
        exercise omega_inv and n_inv from the segment header."""
        rng = _rng(chaos_seed, "twiddle-shm")
        n = 1 << rng.randint(3, 10)
        built = Domain(n)
        twiddles, inv_twiddles = built.tables()
        # Round-trip through an actual shared-memory segment in the
        # parent-side layout: [omega, omega_inv, n_inv] + tables.
        packed = shm.pack_scalars(
            [built.omega, built.omega_inv, built.n_inv] + twiddles + inv_twiddles
        )
        seg = shm.create_segment(len(packed))
        try:
            seg.buf[: len(packed)] = packed
            half = max(n >> 1, 1)
            omega, omega_inv, n_inv = shm.unpack_scalars(seg.buf, 0, 3)
            attached = Domain.from_tables(
                n,
                omega,
                omega_inv,
                n_inv,
                shm.unpack_scalars(seg.buf, 3, half),
                shm.unpack_scalars(seg.buf, 3 + half, half),
            )
        finally:
            shm.release_segment(seg)
        assert attached.tables() == built.tables()
        coeffs = [rng.randrange(R) for _ in range(n)]
        assert attached.fft(list(coeffs)) == built.fft(list(coeffs))
        assert attached.ifft(list(coeffs)) == built.ifft(list(coeffs))
        assert attached.coset_fft(list(coeffs)) == built.coset_fft(list(coeffs))
        assert attached.coset_ifft(list(coeffs)) == built.coset_ifft(list(coeffs))

    def test_seed_cache_never_displaces_local_domain(self):
        local = Domain.get(16)
        rebuilt = Domain.from_tables(
            16, local.omega, local.omega_inv, local.n_inv, *local.tables()
        )
        Domain.seed_cache(rebuilt)
        assert Domain.get(16) is local

    def test_msm_srs_and_fixed_table_kernels_match_msm_jac(self, engines, chaos_seed):
        serial, parallel = engines
        rng = _rng(chaos_seed, "srs-msm")

        class _FakeSRS:
            def __init__(self, points):
                self.g1_powers = points

        n = rng.randint(140, 180)
        powers = [G1.generator() * rng.randrange(1, R) for _ in range(n)]
        srs = _FakeSRS(powers)
        coeffs = [rng.randrange(R) for _ in range(rng.randint(100, n))]
        expected = serial.msm_jac(
            [p.to_jacobian() for p in powers[: len(coeffs)]], coeffs
        )
        for eng in (serial, parallel):
            got = eng.msm_srs(srs, coeffs)
            assert jac_to_affine(got) == jac_to_affine(expected)
            table = tuple(powers)
            got_fixed = eng.msm_g1_fixed(table, coeffs)
            assert got_fixed.to_bytes() == G1.from_jacobian(expected).to_bytes()
        # Both table paths were split with the forked helper, which was
        # re-forked when the second table appeared.
        assert parallel.live_helpers() == 1
        assert set(parallel._forked_rows) >= {id(srs), id(table)}

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

    def test_full_engines_identical_under_both_substrate_modes(self, engines, chaos_seed):
        serial, parallel = engines
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
        for eng in (serial, parallel):
            assert eng.msm_g1(points, scalars).to_bytes() == ref_msm.to_bytes()
            assert eng.ntt_batch(list(jobs)) == [ref_ntt]


@pytest.mark.slow
class TestPairingDifferential:
    """The pairing engine vs the reference oracle (``tests/pairing_oracle.py``)."""

    def test_fast_equals_reference_on_random_points(self, engines, chaos_seed):
        serial, parallel = engines
        rng = _rng(chaos_seed, "pair")
        for _ in range(3):
            p = G1.generator() * rng.randrange(1, R)
            q = G2.generator() * rng.randrange(1, R)
            ref = pairing_oracle.pairing(p, q)
            assert serial.pairing(p, q) == ref
            assert parallel.pairing(p, q) == ref

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
        serial, parallel = engines
        rng = _rng(chaos_seed, "check")
        a = rng.randrange(2, R)
        p, q = G1.generator(), G2.generator()
        # e(aP, Q) * e(-P, aQ) == 1
        pairs = [(p * a, q), (-(p), q * a)]
        assert serial.pairing_check(pairs)
        assert parallel.pairing_check(pairs)
        bad = [(p * a, q), (-(p), q * ((a + 1) % R))]
        assert not serial.pairing_check(bad)
        assert not parallel.pairing_check(bad)
