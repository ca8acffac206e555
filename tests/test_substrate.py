"""Unit tests for what is left of the data plane below the engine: the
split engine's helper lifecycle (no shared-memory segment exists any
more — a helper inherits the window tables at fork) and the GLV
constants (``curve/glv.py``).
"""

import multiprocessing
import os

import pytest

from repro.backend.split import SplitEngine
from repro.curve import glv
from repro.curve.fq import Q
from repro.curve.g1 import G1
from repro.field.fr import MODULUS as R

pytestmark = pytest.mark.usefixtures("lone_thread_at_fork")


class TestSegmentLifecycle:
    def test_fixed_table_split_pins_nothing_and_close_reaps_the_helper(self):
        """A fixed-table MSM is split with a forked helper that inherited
        the window tables: no packed copy of the points exists — nothing
        appears under ``/dev/shm`` — and ``close()`` leaves no process
        behind."""
        table = tuple(G1.generator() * k for k in range(1, 140))
        scalars = list(range(1, 140))
        engine = SplitEngine(helpers=1)
        children = set(multiprocessing.active_children())
        segments = set(os.listdir("/dev/shm"))
        try:
            got = engine.msm_g1_fixed(table, scalars)
            assert got == G1.generator() * sum(k * k for k in range(1, 140))
            assert set(os.listdir("/dev/shm")) <= segments
            assert engine.live_helpers() == 1
            assert len(set(multiprocessing.active_children()) - children) == 1
        finally:
            engine.close()
        assert set(multiprocessing.active_children()) == children


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
