"""The compute-backend layer: engine selection, caches, and equivalence.

The contract under test is the one the protocol layers rely on:

- backend selection is programmatic (``use_engine`` / ``set_engine`` /
  ``engine=``) and the process default is always serial;
- ``SplitEngine`` is bit-identical to ``SerialEngine`` on every kernel
  (NTT batches, G1/G2 MSM, batched inversion, KZG commitments) and on a
  full Plonk proof whose commitments are wide enough to split;
- kernel edge cases: ``batch_inverse`` error contracts, ``root_of_unity``
  bounds, MSM length mismatches, fixed-base multiples of the generators.

The split engine under test has one helper (the container may have a
single CPU; the fork, the pipe protocol and the fold still run) and
shares a fixed-table MSM of ``MIN_MSM_POINTS`` terms or more.
"""

import random

import pytest

from repro.errors import CurveError, FieldError
from repro.backend import SerialEngine, SplitEngine, get_engine, set_engine, use_engine
from repro.backend.split import MIN_MSM_POINTS
from repro.curve.fq import fq2_batch_inverse, fq_batch_inverse
from repro.curve.g1 import G1, jac_mul, jac_to_affine
from repro.curve.g2 import G2
from repro.curve.msm import fixed_window_c, msm_g1, msm_g2, msm_jacobian
from repro.field.fr import MODULUS as R, batch_inverse, inv, root_of_unity
from repro.field.ntt import COSET_SHIFT, Domain
from repro.kzg.commit import commit
from repro.kzg.srs import SRS

pytestmark = pytest.mark.usefixtures("lone_thread_at_fork")


@pytest.fixture(scope="module")
def split_engine():
    """A SplitEngine with one forked helper."""
    engine = SplitEngine(helpers=1)
    yield engine
    engine.close()


def wide_circuit():
    """100 chained squarings: n = 128, so every commitment of a proof
    (n .. n + margin scalars) is wide enough for a helper to take half."""
    from repro.plonk.circuit import CircuitBuilder

    builder = CircuitBuilder()
    w = builder.var(5)
    for _ in range(100):
        w = builder.mul(w, w)
    builder.assert_equal(w, builder.public_input(pow(5, 1 << 100, R)))
    layout, assignment = builder.compile()
    assert layout.n >= MIN_MSM_POINTS
    return layout, assignment


@pytest.fixture(scope="module")
def small_srs():
    return SRS.generate(300, tau=0xFEED)


class TestSelection:
    def test_default_is_serial(self, monkeypatch):
        """Always: no variable selects a backend, whatever a deployment
        has in its environment."""
        monkeypatch.setenv("REPRO_BACKEND", "parallel")
        previous = set_engine(None)
        try:
            engine = get_engine()
            assert isinstance(engine, SerialEngine)
            assert engine.name == "serial"
        finally:
            set_engine(previous)

    def test_get_engine_is_singleton(self):
        previous = set_engine(None)  # reset the process-wide default
        try:
            assert get_engine() is get_engine()
        finally:
            set_engine(previous)

    def test_set_engine_returns_previous(self):
        mine = SerialEngine()
        previous = set_engine(mine)
        try:
            assert get_engine() is mine
        finally:
            set_engine(previous)

    def test_use_engine_restores(self):
        outer = get_engine()
        mine = SerialEngine()
        with use_engine(mine):
            assert get_engine() is mine
        assert get_engine() is outer


class TestEngineEquivalence:
    """SplitEngine must be bit-identical to SerialEngine."""

    def test_ntt_batch(self, split_engine):
        rng = random.Random(1)
        serial = SerialEngine()
        jobs = []
        for n in (4, 16, 64, 256):
            jobs.append(("fft", n, [rng.randrange(R) for _ in range(n)], 0))
            jobs.append(("ifft", n, [rng.randrange(R) for _ in range(n)], 0))
            jobs.append(
                ("coset_fft", n, [rng.randrange(R) for _ in range(n)], COSET_SHIFT)
            )
            jobs.append(
                ("coset_ifft", n, [rng.randrange(R) for _ in range(n)], COSET_SHIFT)
            )
        assert split_engine.ntt_batch(jobs) == serial.ntt_batch(jobs)

    def test_msm_g1_matches_serial_and_naive(self, split_engine):
        rng = random.Random(2)
        serial = SerialEngine()
        for n in (1, 2, 5, 37, 200):
            points = [G1.generator() * rng.randrange(1, R) for _ in range(n)]
            scalars = [
                rng.choice([0, 1, R - 1, rng.randrange(R)]) for _ in range(n)
            ]
            expected = G1.identity()
            for p, s in zip(points, scalars):
                expected = expected + p * s
            got_serial = serial.msm_g1(points, scalars)
            got_split = split_engine.msm_g1(points, scalars)
            assert got_serial == expected
            assert got_split == expected
            assert got_split.to_bytes() == got_serial.to_bytes()

    def test_msm_g2_matches_serial_and_naive(self, split_engine):
        rng = random.Random(3)
        serial = SerialEngine()
        for n in (1, 3, 11):
            points = [G2.generator() * rng.randrange(1, R) for _ in range(n)]
            scalars = [rng.choice([0, 1, R - 1, rng.randrange(R)]) for _ in range(n)]
            expected = G2.identity()
            for p, s in zip(points, scalars):
                expected = expected + p * s
            assert serial.msm_g2(points, scalars) == expected
            assert split_engine.msm_g2(points, scalars) == expected

    def test_batch_inverse(self, split_engine):
        rng = random.Random(4)
        values = [rng.randrange(1, R) for _ in range(513)]
        serial = SerialEngine().batch_inverse(values)
        assert serial == split_engine.batch_inverse(values)
        for v, v_inv in zip(values, serial):
            assert v * v_inv % R == 1

    def test_commitments(self, split_engine, small_srs):
        rng = random.Random(5)
        serial = SerialEngine()
        coeffs = [rng.randrange(R) for _ in range(200)]
        c_serial = commit(small_srs, coeffs, engine=serial)
        c_split = commit(small_srs, coeffs, engine=split_engine)
        assert c_serial == c_split
        assert c_serial.to_bytes() == c_split.to_bytes()
        # 200 scalars ride the window tables, so this was the split path:
        # half here, half on the forked helper.
        assert split_engine.live_helpers() == 1

    def test_plonk_proof_bit_identical(self, split_engine, small_srs):
        from repro.plonk.keys import setup
        from repro.plonk.prover import prove
        from repro.plonk.verifier import verify

        layout, assignment = wide_circuit()
        serial = SerialEngine()
        pk_s, vk_s = setup(small_srs, layout, engine=serial)
        pk_p, vk_p = setup(small_srs, layout, engine=split_engine)
        assert vk_s.digest() == vk_p.digest()

        # blinding=False makes the prover deterministic, so the proofs of
        # the two engines must agree byte for byte.
        proof_s = prove(pk_s, assignment, blinding=False, engine=serial)
        proof_p = prove(pk_p, assignment, blinding=False, engine=split_engine)
        assert proof_s.to_bytes() == proof_p.to_bytes()
        assert split_engine.live_helpers() == 1
        assert split_engine._forked_rows[id(small_srs)] >= layout.n
        assert verify(vk_s, assignment.public_inputs, proof_p, engine=serial)

    def test_fixed_base_mul(self, split_engine):
        rng = random.Random(6)
        serial = SerialEngine()
        g1, g2 = G1.generator(), G2.generator()
        for k in (0, 1, 2, R - 1, R, rng.randrange(R)):
            assert serial.fixed_base_mul(g1, k) == g1 * k
            assert split_engine.fixed_base_mul(g1, k) == g1 * k
            assert serial.fixed_base_mul(g2, k) == g2 * k


class TestEngineCaches:
    def test_coset_eval_cache_hits(self, small_srs):
        engine = SerialEngine()
        owner = object()
        coeffs = [3, 1, 4, 1]
        first = engine.coset_ntt_cached(owner, "q", coeffs, 8)
        second = engine.coset_ntt_cached(owner, "q", coeffs, 8)
        assert first is second  # cache hit returns the same list
        other = engine.coset_ntt_cached(object(), "q", coeffs, 8)
        assert other is not first and other == first

    def test_srs_jacobian_cached_per_srs(self, small_srs):
        engine = SerialEngine()
        first = engine.srs_g1_jacobian(small_srs)
        assert engine.srs_g1_jacobian(small_srs) is first
        assert len(first) == len(small_srs.g1_powers)
        assert jac_to_affine(first[0]) == (small_srs.g1_powers[0].x, small_srs.g1_powers[0].y)

    def test_window_width_follows_table_growth(self, small_srs):
        """A table first built for a short prefix (narrow window) is rebuilt
        at the wide window once a long prefix arrives, not served narrow
        for ever."""
        engine = SerialEngine()
        points = engine.srs_g1_jacobian(small_srs)
        rng = random.Random(7)
        assert fixed_window_c(40) < fixed_window_c(200)
        for size in (40, 200, 40):
            scalars = [rng.randrange(R) for _ in range(size)]
            got = engine.msm_srs(small_srs, scalars)
            expected = msm_jacobian(list(points[:size]), scalars)
            assert jac_to_affine(got) == jac_to_affine(expected)
            _, width, tables = engine._window_tables[id(small_srs)]
            assert width == fixed_window_c(len(tables))
        assert len(tables) == 200


class TestKernelEdgeCases:
    def test_batch_inverse_empty(self, split_engine):
        assert batch_inverse([]) == []
        assert SerialEngine().batch_inverse([]) == []
        assert split_engine.batch_inverse([]) == []

    def test_batch_inverse_zero_raises_with_index(self, split_engine):
        values = [5, 7, 0, 11]
        with pytest.raises(FieldError, match="index 2"):
            batch_inverse(values)
        with pytest.raises(FieldError, match="index 2"):
            SerialEngine().batch_inverse(values)
        with pytest.raises(FieldError, match="index 2"):
            split_engine.batch_inverse(values)
        tail_zero = [3] * 100 + [0]
        with pytest.raises(FieldError, match="index 100"):
            split_engine.batch_inverse(tail_zero)

    def test_fq_batch_inverse_edge_cases(self):
        assert fq_batch_inverse([]) == []
        with pytest.raises(FieldError, match="index 1"):
            fq_batch_inverse([3, 0])
        with pytest.raises(FieldError, match="index 0"):
            fq2_batch_inverse([(0, 0), (1, 2)])

    def test_root_of_unity_bounds(self):
        with pytest.raises(FieldError):
            root_of_unity(0)
        with pytest.raises(FieldError):
            root_of_unity(3)  # not a power of two
        with pytest.raises(FieldError):
            root_of_unity(-8)
        with pytest.raises(FieldError):
            root_of_unity(2**29)  # exceeds the 2-adicity of r - 1
        for order in (1, 2, 8, 2**28):
            w = root_of_unity(order)
            assert pow(w, order, R) == 1
            if order > 1:
                assert pow(w, order // 2, R) != 1

    def test_msm_length_mismatch(self):
        g = G1.generator()
        with pytest.raises(CurveError):
            msm_g1([g, g], [1])
        with pytest.raises(CurveError):
            msm_g2([G2.generator()], [1, 2])

    def test_msm_degenerate_inputs(self):
        g = G1.generator()
        assert msm_g1([], []) == G1.identity()
        assert msm_g1([g, -g], [4, 4]) == G1.identity()
        assert msm_g1([g, G1.identity()], [3, 9]) == g * 3
        # scalars outside [0, r) reduce canonically
        assert msm_g1([g], [R + 2]) == g * 2
        # many copies of one point pile into a single bucket (exercises the
        # batch-affine reduction's doubling branch)
        assert msm_g1([g] * 33, [5] * 33) == g * 165

    def test_msm_jacobian_infinity_result(self):
        p = jac_mul((1, 2, 1), 12345)
        aff = jac_to_affine(p)
        from repro.curve.fq import Q
        neg = (aff[0], Q - aff[1], 1)
        from repro.curve.msm import msm_jacobian
        out = msm_jacobian([p, neg], [9, 9])
        assert out[2] == 0

    def test_domain_elements_cached_and_consistent(self):
        d = Domain.get(8)
        first = d.elements
        assert d.elements is first
        assert first[0] == 1
        assert len(first) == 8
        acc = 1
        for i, e in enumerate(first):
            assert e == acc
            acc = acc * d.omega % R


class TestParallelThresholds:
    def test_below_threshold_stays_serial(self, small_srs):
        """Small inputs must not pay a fork or a pipe round trip (and
        still be correct)."""
        engine = SplitEngine(helpers=1)
        try:
            g = G1.generator()
            assert engine.msm_g1([g, g], [2, 3]) == g * 5
            assert engine.batch_inverse([4]) == [inv(4)]
            jobs = [("fft", 4, [1, 2, 3, 4], 0)]
            assert engine.ntt_batch(jobs) == SerialEngine().ntt_batch(jobs)
            short = list(range(1, MIN_MSM_POINTS))
            assert jac_to_affine(engine.msm_srs(small_srs, short)) == jac_to_affine(
                SerialEngine().msm_srs(small_srs, short)
            )
            assert engine.live_helpers() == 0 and not engine._forked_rows
        finally:
            engine.close()

    def test_close_is_idempotent(self, small_srs):
        engine = SplitEngine(helpers=1)
        engine.msm_srs(small_srs, [1] * MIN_MSM_POINTS)  # fork the helper
        assert engine.live_helpers() == 1
        engine.close()
        engine.close()
        assert engine.live_helpers() == 0

    def test_repr_names_backend(self, split_engine):
        assert "split" in repr(split_engine)
        assert "serial" in repr(SerialEngine())
