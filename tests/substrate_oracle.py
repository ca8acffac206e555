"""The retired reference data plane, kept as a differential oracle.

Until PR 21 ``REPRO_SUBSTRATE=reference`` switched ``src/`` onto these
kernels: a modulo-per-butterfly NTT (``field/ntt.py::_ntt_in_place_ref``,
body unchanged below), plain double-and-add for ``G1.__mul__`` and a
GLV-free MSM.  The library now runs one kernel of each kind — lazy-
reduction butterflies, GLV ladders, GLV bucket / window-table MSMs — and
``tests/test_differential.py`` holds them bit-identical to the
comparators here.
"""

from __future__ import annotations

from repro.curve.g1 import G1, JAC_INF, jac_add, jac_mul
from repro.field.fr import MODULUS as _R
from repro.field.ntt import _bit_reverse_permute


def ntt_in_place_ref(values: list[int], twiddles: list[int]) -> None:
    """Reference Cooley-Tukey butterflies: one ``%`` per add and sub."""
    n = len(values)
    _bit_reverse_permute(values)
    length = 2
    while length <= n:
        half = length >> 1
        step = n // length
        for start in range(0, n, length):
            idx = 0
            for k in range(start, start + half):
                w = twiddles[idx]
                u = values[k]
                t = values[k + half] * w % _R
                values[k] = (u + t) % _R
                values[k + half] = (u - t) % _R
                idx += step
        length <<= 1


def g1_mul(p: G1, k: int) -> G1:
    """``k * P`` by plain double-and-add (no endomorphism)."""
    return G1.from_jacobian(jac_mul(p.to_jacobian(), int(k)))


def msm_naive(points: list[tuple], scalars: list[int]) -> tuple:
    """``sum k_i * P_i`` over Jacobian tuples, one double-and-add per term."""
    acc = JAC_INF
    for p, k in zip(points, scalars):
        acc = jac_add(acc, jac_mul(p, k))
    return acc
