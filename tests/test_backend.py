"""The compute engine: the process's engine, caches, and equivalence.

The contract under test is the one the protocol layers rely on:

- the process has one engine (``get_engine``), with one helper per spare
  core of the CPU mask, and ``set_engine`` / ``use_engine`` replace it;
- an engine with helpers is bit-identical to one without on every kernel
  (NTT batches, G1/G2 MSM, batched inversion, KZG commitments) and on a
  full Plonk proof whose commitments are wide enough to split;
- helpers belong to the process that forked them: a forked child of an
  engine's process forks its own;
- row i of a window table belongs to process i mod (helpers + 1): each
  process builds and holds its own rows, growth forks nothing, a helper
  forked after ``close()`` is sent its rows, a dead helper is dropped and
  its rows built here, and no helper is forked beside another thread;
- kernel edge cases: ``batch_inverse`` error contracts, ``root_of_unity``
  bounds, MSM length mismatches, fixed-base multiples of the generators.

The engine under test has one helper (the container may have a
single CPU; the fork, the pipe protocol and the fold still run) and
shares a fixed-table MSM of ``MIN_MSM_POINTS`` terms or more.
"""

import multiprocessing
import os
import random
import signal
import threading

import pytest

from repro.errors import CurveError, FieldError
from repro.backend import Engine, get_engine, set_engine, use_engine
from repro.backend.engine import MIN_MSM_POINTS
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
    """An engine with one forked helper."""
    engine = Engine(helpers=1)
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
    def test_default_helpers_follow_the_mask(self, cpus, monkeypatch):
        """One helper per spare core of the CPU mask, and no variable
        changes that, whatever a deployment has in its environment."""
        monkeypatch.setenv("REPRO_BACKEND", "serial")
        for mask, helpers, name in ((1, 0, "serial"), (2, 1, "split"), (5, 4, "split")):
            cpus(mask)
            engine = get_engine()
            assert (engine.helpers, engine.name) == (helpers, name)

    def test_get_engine_is_singleton(self):
        previous = set_engine(None)  # reset the process's engine
        try:
            assert get_engine() is get_engine()
        finally:
            set_engine(previous)

    def test_set_engine_returns_previous(self):
        mine = Engine()
        previous = set_engine(mine)
        try:
            assert get_engine() is mine
        finally:
            set_engine(previous)

    def test_use_engine_restores(self):
        outer = get_engine()
        mine = Engine()
        with pytest.raises(RuntimeError):
            with use_engine(mine):
                assert get_engine() is mine
                raise RuntimeError("the scope fails")
        assert get_engine() is outer


class TestEngineEquivalence:
    """Helpers must not change a bit of any result."""

    def test_ntt_batch(self, split_engine):
        rng = random.Random(1)
        serial = Engine()
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
        serial = Engine()
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
        serial = Engine()
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
        serial = Engine().batch_inverse(values)
        assert serial == split_engine.batch_inverse(values)
        for v, v_inv in zip(values, serial):
            assert v * v_inv % R == 1

    def test_commitments(self, split_engine, small_srs):
        rng = random.Random(5)
        serial = Engine()
        coeffs = [rng.randrange(R) for _ in range(200)]
        with use_engine(serial):
            c_serial = commit(small_srs, coeffs)
        with use_engine(split_engine):
            c_split = commit(small_srs, coeffs)
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
        serial = Engine()
        # blinding=False makes the prover deterministic, so the proofs of
        # the two engines must agree byte for byte.
        with use_engine(serial):
            pk_s, vk_s = setup(small_srs, layout)
            proof_s = prove(pk_s, assignment, blinding=False)
        with use_engine(split_engine):
            pk_p, vk_p = setup(small_srs, layout)
            proof_p = prove(pk_p, assignment, blinding=False)
        assert vk_s.digest() == vk_p.digest()
        assert proof_s.to_bytes() == proof_p.to_bytes()
        assert split_engine.live_helpers() == 1
        # The helper was sent every odd row of the prefix the proof used.
        (helper,) = split_engine._links
        rows = split_engine._window_tables[id(small_srs)][2]
        assert len(rows) >= layout.n
        assert helper.held[id(small_srs)] == (fixed_window_c(len(rows)), len(rows) // 2)
        with use_engine(serial):
            assert verify(vk_s, assignment.public_inputs, proof_p)

    def test_fixed_base_mul(self, split_engine):
        rng = random.Random(6)
        serial = Engine()
        g1, g2 = G1.generator(), G2.generator()
        for k in (0, 1, 2, R - 1, R, rng.randrange(R)):
            assert serial.fixed_base_mul(g1, k) == g1 * k
            assert split_engine.fixed_base_mul(g1, k) == g1 * k
            assert serial.fixed_base_mul(g2, k) == g2 * k


class TestEngineCaches:
    def test_coset_eval_cache_hits(self, small_srs):
        engine = Engine()
        owner = object()
        coeffs = [3, 1, 4, 1]
        first = engine.coset_ntt_cached(owner, "q", coeffs, 8)
        second = engine.coset_ntt_cached(owner, "q", coeffs, 8)
        assert first is second  # cache hit returns the same list
        other = engine.coset_ntt_cached(object(), "q", coeffs, 8)
        assert other is not first and other == first

    def test_srs_jacobian_cached_per_srs(self, small_srs):
        engine = Engine()
        first = engine.srs_g1_jacobian(small_srs)
        assert engine.srs_g1_jacobian(small_srs) is first
        assert len(first) == len(small_srs.g1_powers)
        assert jac_to_affine(first[0]) == (small_srs.g1_powers[0].x, small_srs.g1_powers[0].y)

    def test_window_width_follows_table_growth(self, small_srs):
        """A table first built for a short prefix (narrow window) is rebuilt
        at the wide window once a long prefix arrives, not served narrow
        for ever."""
        engine = Engine()
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
        assert Engine().batch_inverse([]) == []
        assert split_engine.batch_inverse([]) == []

    def test_batch_inverse_zero_raises_with_index(self, split_engine):
        values = [5, 7, 0, 11]
        with pytest.raises(FieldError, match="index 2"):
            batch_inverse(values)
        with pytest.raises(FieldError, match="index 2"):
            Engine().batch_inverse(values)
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
        engine = Engine(helpers=1)
        try:
            g = G1.generator()
            assert engine.msm_g1([g, g], [2, 3]) == g * 5
            assert engine.batch_inverse([4]) == [inv(4)]
            jobs = [("fft", 4, [1, 2, 3, 4], 0)]
            assert engine.ntt_batch(jobs) == Engine().ntt_batch(jobs)
            short = list(range(1, MIN_MSM_POINTS))
            assert jac_to_affine(engine.msm_srs(small_srs, short)) == jac_to_affine(
                Engine().msm_srs(small_srs, short)
            )
            assert engine.live_helpers() == 0
        finally:
            engine.close()

    def test_close_is_idempotent(self, small_srs):
        engine = Engine(helpers=1)
        engine.msm_srs(small_srs, [1] * MIN_MSM_POINTS)  # fork the helper
        assert engine.live_helpers() == 1
        engine.close()
        engine.close()
        assert engine.live_helpers() == 0

    def test_repr_names_backend(self, split_engine):
        assert "split" in repr(split_engine)
        assert "serial" in repr(Engine())

    def test_a_forked_child_forks_its_own_helpers(self, small_srs):
        """A child forked from a process whose engine has a live helper
        (a prover-pool worker is one) does not send its shards down the
        parent's pipes: it forks a helper of its own, and the parent's
        helper serves the parent afterwards."""
        engine = Engine(helpers=1)
        scalars = list(range(1, MIN_MSM_POINTS + 1))
        try:
            want = engine.msm_srs(small_srs, scalars)
            (parent_helper,) = [helper.proc.pid for helper in engine._links]
            ctx = multiprocessing.get_context("fork")
            ours, theirs = ctx.Pipe()

            def child():
                got = engine.msm_srs(small_srs, scalars)
                theirs.send(
                    (got, engine.live_helpers(), [h.proc.pid for h in engine._links])
                )
                engine.close()

            proc = ctx.Process(target=child)
            proc.start()
            theirs.close()  # a child that dies reads as EOF here
            got, live, helpers = ours.recv()
            proc.join()
            assert proc.exitcode == 0
            assert jac_to_affine(got) == jac_to_affine(want)
            assert live == 1 and helpers != [parent_helper]
            assert engine.live_helpers() == 1
            assert jac_to_affine(engine.msm_srs(small_srs, scalars)) == jac_to_affine(want)
        finally:
            engine.close()


@pytest.fixture(scope="module")
def wide_srs():
    """Powers for the widest table prefix (2,048 + the blinding margin)."""
    return SRS.generate(2056, tau=0xD1CE)


def _held_here(engine, owner):
    """Indices of the window rows of ``owner`` that ``engine`` holds."""
    return [i for i, row in enumerate(engine._window_tables[id(owner)][2]) if row is not None]


class TestRowOwnership:
    """Row i of a window table belongs to process i mod (helpers + 1);
    each process builds and holds only the rows it owns."""

    def test_growth_forks_nothing_and_each_process_holds_its_rows(
        self, wide_srs, lone_thread_at_fork
    ):
        engine = Engine(helpers=1)
        points = engine.srs_g1_jacobian(wide_srs)
        rng = random.Random(8)
        scalars = [rng.randrange(R) for _ in range(2056)]
        try:
            for n in (1032, 2056):
                got = engine.msm_srs(wide_srs, scalars[:n])
                want = msm_jacobian(list(points[:n]), scalars[:n])
                assert jac_to_affine(got) == jac_to_affine(want)
                if n == 1032:
                    (helper,) = engine._links
                    children = set(multiprocessing.active_children())
            # The table grew 1,032 -> 2,056 rows on the helper forked first.
            assert engine._links == [helper] and helper.proc.is_alive()
            assert set(multiprocessing.active_children()) == children
            assert len(lone_thread_at_fork) == 1
            assert _held_here(engine, wide_srs) == list(range(0, 2056, 2))
            assert helper.held[id(wide_srs)] == (fixed_window_c(2056), 1028)
        finally:
            engine.close()

    def test_a_helper_forked_after_close_is_sent_its_rows(
        self, small_srs, lone_thread_at_fork
    ):
        engine = Engine(helpers=1)
        rng = random.Random(9)
        scalars = [rng.randrange(R) for _ in range(250)]
        want = jac_to_affine(Engine().msm_srs(small_srs, scalars))
        try:
            assert jac_to_affine(engine.msm_srs(small_srs, scalars)) == want
            engine.close()
            assert engine.live_helpers() == 0 and len(lone_thread_at_fork) == 1
            assert jac_to_affine(engine.msm_srs(small_srs, scalars)) == want
            assert engine.live_helpers() == 1 and len(lone_thread_at_fork) == 2
            (helper,) = engine._links
            assert helper.held[id(small_srs)][1] == 125
            assert _held_here(engine, small_srs) == list(range(0, 250, 2))
        finally:
            engine.close()

    def test_a_killed_helper_is_dropped_and_its_rows_built_here(
        self, small_srs, lone_thread_at_fork
    ):
        engine = Engine(helpers=2)
        rng = random.Random(10)
        serial = Engine()
        try:
            for n in (200, 300):
                scalars = [rng.randrange(R) for _ in range(n)]
                want = jac_to_affine(serial.msm_srs(small_srs, scalars))
                assert jac_to_affine(engine.msm_srs(small_srs, scalars)) == want
                if n == 200:
                    first, second = engine._links
                    os.kill(first.proc.pid, signal.SIGKILL)
                    first.proc.join()
                    assert engine.live_helpers() == 1
            assert engine._links == [second] and engine.live_helpers() == 1
            assert len(lone_thread_at_fork) == 2  # the two first forks, no re-fork
            assert _held_here(engine, small_srs) == [i for i in range(300) if i % 3 != 2]
        finally:
            engine.close()

    def test_no_helper_is_forked_beside_another_thread(self, small_srs, lone_thread_at_fork):
        """A forked child inherits each thread's locks in whatever state
        they were: while another thread lives, the MSM runs here."""
        engine = Engine(helpers=1)
        rng = random.Random(11)
        scalars = [rng.randrange(R) for _ in range(200)]
        want = jac_to_affine(Engine().msm_srs(small_srs, scalars))
        release = threading.Event()
        other = threading.Thread(target=release.wait)
        other.start()
        try:
            assert jac_to_affine(engine.msm_srs(small_srs, scalars)) == want
            assert engine.live_helpers() == 0 and not lone_thread_at_fork
        finally:
            release.set()
            other.join()
            engine.close()
