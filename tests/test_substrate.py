"""Unit tests for the packed data plane (``backend/shm.py``, ``curve/glv.py``).

Covers the packed scalar/point cell codecs, shared-memory segment
lifecycle (including the worker-crash unlink guarantee, driven by the
fault plane's ``workers`` profile), and the GLV constants.
"""

import multiprocessing
import os
import signal
import threading

import pytest

from repro.backend import shm
from repro.backend.parallel import ParallelEngine
from repro.curve import glv
from repro.curve.fq import Q
from repro.curve.g1 import G1, JAC_INF
from repro.errors import BackendError
from repro.faults.plan import FaultPlan, draw
from repro.field.fr import MODULUS as R


class TestScalarPacking:
    def test_pack_unpack_roundtrip(self):
        values = [0, 1, R - 1, 12345, R + 7]  # last one reduces mod r
        buf = shm.pack_scalars(values)
        assert len(buf) == 32 * len(values)
        assert shm.unpack_scalars(buf) == [v % R for v in values]
        assert shm.unpack_scalars(buf, start=2, count=2) == [R - 1, 12345]


class TestPointPacking:
    def test_roundtrip_with_infinity(self):
        pts = [(G1.generator() * k).to_jacobian() for k in (1, 2, 3)]
        pts.insert(1, JAC_INF)
        packed = shm.pack_points(pts)
        assert len(packed) == 64 * 4
        out = shm.unpack_points(packed)
        assert out[1] == JAC_INF
        assert [p[:2] for p in out if p[2]] == [p[:2] for p in pts if p[2]]

    def test_slice_addressing(self):
        pts = [(G1.generator() * k).to_jacobian() for k in (5, 6, 7, 8)]
        packed = shm.pack_points(pts)
        assert shm.unpack_points(packed, start=2, count=2) == pts[2:]


class TestSegmentLifecycle:
    def test_create_release_unlinks(self):
        seg = shm.create_segment(128)
        name = seg.name
        assert name in shm.owned_names()
        assert shm.segment_exists(name)
        shm.release_segment(seg)
        assert name not in shm.owned_names()
        assert not shm.segment_exists(name)

    def test_release_is_idempotent(self):
        seg = shm.create_segment(32)
        shm.release_segment(seg)
        shm.release_segment(seg)  # second release is a no-op

    def test_cleanup_owned_sweeps_everything(self):
        names = [shm.create_segment(32).name for _ in range(3)]
        shm.cleanup_owned()
        assert all(not shm.segment_exists(n) for n in names)

    def test_fixed_table_split_pins_nothing_and_close_reaps_the_helper(self):
        """A fixed-table MSM is split with a forked helper that inherited
        the window tables: no packed copy of the points exists, and
        ``close()`` leaves no process behind."""
        table = tuple(G1.generator() * k for k in range(1, 140))
        scalars = list(range(1, 140))
        engine = ParallelEngine(workers=2, min_msm_points=1)
        children = set(multiprocessing.active_children())
        try:
            before = set(shm.owned_names())
            got = engine.msm_g1_fixed(table, scalars)
            assert got == G1.generator() * sum(k * k for k in range(1, 140))
            assert set(shm.owned_names()) == before
            assert engine.live_helpers() == 1
            assert len(set(multiprocessing.active_children()) - children) == 1
        finally:
            engine.close()
        assert set(multiprocessing.active_children()) == children

    def test_scratch_segments_released_after_each_call(self):
        engine = ParallelEngine(workers=2, min_inverse_size=1, min_msm_points=10**9)
        try:
            before = set(shm.owned_names())
            engine.batch_inverse(list(range(1, 64)))
            assert set(shm.owned_names()) == before  # scratch fully reclaimed
        finally:
            engine.close()


class TestGLVConstants:
    def test_beta_is_nontrivial_cube_root(self):
        assert glv.BETA != 1
        assert pow(glv.BETA, 3, Q) == 1

    def test_lambda_is_eigenvalue(self):
        assert (glv.LAMBDA * glv.LAMBDA + glv.LAMBDA + 1) % R == 0
        g = G1.generator()
        lhs = g * glv.LAMBDA
        assert (lhs.x, lhs.y) == (glv.BETA * g.x % Q, g.y)

    def test_basis_vectors_are_half_width(self):
        assert glv.HALF_BITS <= 131
        for a, b in (glv._V1, glv._V2):
            assert (a + b * glv.LAMBDA) % R == 0


@pytest.mark.chaos
class TestWorkerCrashCleanup:
    """The PR 6 fix: shm segments are unlinked on worker crash/abort.

    ``backend/`` may not import ``repro.faults`` (DET-001), so the
    fault plane's ``workers`` profile is consulted *here*: the plan's
    seeded draws decide which pool workers get SIGKILLed mid-MSM, and
    the engine must surface a :class:`BackendError` (watchdog timeout)
    with every scratch segment unlinked — never a hang, never a leak.
    """

    def _kill_set(self, chaos_seed, n_workers):
        plan = FaultPlan.profile("workers", chaos_seed)
        rule_index = 0  # the "drop" rule
        budget = plan.rules[rule_index].max_faults
        prob = plan.rules[rule_index].probability_ppm
        kills = []
        for seq in range(n_workers):
            if len(kills) >= budget:
                break
            if draw(plan.seed, rule_index, seq, "backend.worker") < prob:
                kills.append(seq)
        return kills

    def test_worker_kill_unlinks_segments_and_raises(self, chaos_seed):
        workers = 3
        kills = self._kill_set(chaos_seed, workers)
        engine = ParallelEngine(workers=workers, min_msm_points=1, task_timeout=4.0)
        # A workload big enough that every worker's chunk is still in
        # flight when the kills land (cycled base points keep setup cheap;
        # packing cost is per-point so the MSM itself stays large).
        base = [G1.generator() * (k + 1) for k in range(16)]
        n = 8000
        points = [base[k % 16] for k in range(n)]
        scalars = [(k * k + 1) % R for k in range(n)]
        try:
            if not kills:
                # This seed's schedule spares every worker: the call must
                # succeed and still reclaim its scratch segments.
                before = set(shm.owned_names())
                engine.msm_g1(points, scalars)
                assert set(shm.owned_names()) - before == set()
                return
            pool = engine._get_pool()
            stop = threading.Event()

            def assassinate():
                # Keep killing whatever pids occupy the victim slots so a
                # respawned worker cannot rescue the lost chunk; a task
                # that died with its worker is never re-dispatched, so the
                # watchdog must fire.
                while not stop.wait(0.02):
                    for i in kills:
                        try:
                            pid = pool._pool[i].pid
                            os.kill(pid, signal.SIGKILL)
                        except (IndexError, ProcessLookupError):
                            pass

            killer = threading.Thread(target=assassinate)
            killer.start()
            before = set(shm.owned_names())
            try:
                with pytest.raises(BackendError):
                    engine.msm_g1(points, scalars)
            finally:
                stop.set()
                killer.join()
            # Crash path: every scratch segment created for the failed
            # call has been unlinked despite the worker deaths.
            leaked = {
                name for name in set(shm.owned_names()) - before
                if shm.segment_exists(name)
            }
            assert leaked == set()
        finally:
            engine.close()
        assert all(not shm.segment_exists(n) for n in shm.owned_names())
