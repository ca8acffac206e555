"""GLV endomorphism scalar multiplication for G1.

BN254's G1 lies on ``y^2 = x^3 + 3`` over F_q with ``q ≡ 1 (mod 3)``,
so F_q contains a primitive cube root of unity beta and the map
``psi(x, y) = (beta * x, y)`` is a curve endomorphism.  On the prime-
order group G1 it acts as multiplication by a scalar lambda with
``lambda^2 + lambda + 1 ≡ 0 (mod r)``.  Gallant–Lambert–Vanstone (GLV)
exploits this: any scalar ``k`` splits as ``k = k1 + k2 * lambda (mod
r)`` with ``|k1|, |k2| ~ sqrt(r)`` (half-width), so

    k * P  ==  k1 * P  +  k2 * psi(P)

can be computed with a *single* ~128-iteration Shamir double-and-add
ladder instead of a 254-iteration one — the doublings, which dominate,
are halved.

The constants beta and lambda are **derived, not hard-coded**: beta is
found as a nontrivial cube root of unity via the (q-1)/3 power of small
non-residues, and lambda as the root of ``x^2 + x + 1 (mod r)`` that
satisfies ``lambda * G == psi(G)`` on the actual generator.  The
derivation doubles as an import-time self-check of the endomorphism.

The short lattice basis for the decomposition comes from the classic
extended-Euclid half-GCD on ``(r, lambda)``, stopping at the first
remainder below ``sqrt(r)`` (Algorithm 3.74, Guide to Elliptic Curve
Cryptography).

:func:`glv_jac_mul` is what :meth:`repro.curve.g1.G1.__mul__` and the
MSM front-end run; ``tests/test_differential.py`` holds it bit-identical
— at the affine level — to plain double-and-add (:func:`repro.curve.g1.
jac_mul`).
"""

from __future__ import annotations

import math

from repro.curve.fq import Q
from repro.curve.g1 import (
    GEN_X,
    GEN_Y,
    JAC_INF,
    jac_add,
    jac_double,
    jac_mul,
    jac_neg,
    reduce_scalar,
)
from repro.errors import CurveError
from repro.field.fr import MODULUS as R


def _find_beta() -> int:
    """A nontrivial cube root of unity in F_q (q ≡ 1 mod 3)."""
    exp = (Q - 1) // 3
    for base in range(2, 64):
        beta = pow(base, exp, Q)
        if beta != 1:
            return beta
    raise CurveError("no cube root of unity found in F_q")


def _find_lambda(beta: int) -> int:
    """The eigenvalue of psi on G1: the root of x^2 + x + 1 mod r with
    lambda * G == (beta * Gx, Gy)."""
    exp = (R - 1) // 3
    gen = (GEN_X, GEN_Y, 1)
    target = (beta * GEN_X % Q, GEN_Y, 1)
    for base in range(2, 64):
        lam = pow(base, exp, R)
        if lam == 1:
            continue
        for candidate in (lam, lam * lam % R):
            p = jac_mul(gen, candidate)
            # Compare at the affine level; jac_mul of the affine
            # generator keeps z a product of doubling factors, so
            # cross-multiply rather than invert.
            zz = p[2] * p[2] % Q
            if p[0] == target[0] * zz % Q and p[1] == target[1] * zz * p[2] % Q:
                return candidate
    raise CurveError("endomorphism eigenvalue not found")


BETA = _find_beta()
LAMBDA = _find_lambda(BETA)


def _lattice_basis(lam: int) -> tuple[tuple[int, int], tuple[int, int]]:
    """Two short vectors (a, b) with a + b*lam ≡ 0 (mod r).

    Extended Euclid on (r, lam) tracking r_i = s_i*r + t_i*lam; the
    first remainder below sqrt(r) and its successor give the
    half-width basis vectors (r_i, -t_i).
    """
    sqrt_r = math.isqrt(R)
    rem0, rem1 = R, lam
    t0, t1 = 0, 1
    while rem1 >= sqrt_r:
        quo = rem0 // rem1
        rem0, rem1 = rem1, rem0 - quo * rem1
        t0, t1 = t1, t0 - quo * t1
    # rem1 < sqrt(r) <= rem0; both (rem0, -t0) and (rem1, -t1) satisfy
    # a + b*lam ≡ 0 (mod r).  Pick the shorter companion for v2.
    quo = rem0 // rem1
    rem2, t2 = rem0 - quo * rem1, t0 - quo * t1
    v1 = (rem1, -t1)
    if rem0 * rem0 + t0 * t0 <= rem2 * rem2 + t2 * t2:
        v2 = (rem0, -t0)
    else:
        v2 = (rem2, -t2)
    return v1, v2


_V1, _V2 = _lattice_basis(LAMBDA)

#: det(v1, v2); equals ±r by the Euclid invariant.  The Babai rounding
#: below must divide by the *signed* determinant or the round-off lands
#: far from the closest lattice vector and the split is full-width.
_DET = _V1[0] * _V2[1] - _V2[0] * _V1[1]


def _round_div(num: int, den: int) -> int:
    """round(num / den) for signed ``num`` and positive ``den``."""
    return (2 * num + den) // (2 * den)


def decompose(k: int) -> tuple[int, int]:
    """Split ``k`` (mod r) into half-width ``(k1, k2)`` with
    ``k1 + k2 * lambda ≡ k (mod r)``.

    Babai round-off: with basis v1 = (a1, b1), v2 = (a2, b2),
    c1 = round(b2 * k / det), c2 = round(-b1 * k / det), then
    (k1, k2) = (k, 0) - c1*v1 - c2*v2.  The congruence holds for *any*
    integers c1, c2 (each basis vector is 0 mod r in the embedding);
    the rounding only controls the size bound: |k1|, |k2| are bounded
    by the basis norms (~sqrt(r), so ≤ ~129 bits).
    """
    k = reduce_scalar(k)
    a1, b1 = _V1
    a2, b2 = _V2
    num1, num2, den = b2 * k, -b1 * k, _DET
    if den < 0:
        num1, num2, den = -num1, -num2, -den
    c1 = _round_div(num1, den)
    c2 = _round_div(num2, den)
    k1 = k - c1 * a1 - c2 * a2
    k2 = -c1 * b1 - c2 * b2
    return k1, k2


def endo(p: tuple) -> tuple:
    """Apply psi(x, y, z) = (beta * x, y, z) — multiplication by lambda."""
    if p[2] == 0:
        return JAC_INF
    return (p[0] * BETA % Q, p[1], p[2])


def glv_jac_mul(p: tuple, k: int) -> tuple:
    """GLV scalar multiplication: ``k * P`` via a half-width Shamir ladder.

    Equivalent to :func:`repro.curve.g1.jac_mul` at the affine level
    (Jacobian z-coordinates differ; the differential suite compares
    normalised points).
    """
    k = reduce_scalar(k)
    if k == 0 or p[2] == 0:
        return JAC_INF
    k1, k2 = decompose(k)
    p1 = p
    if k1 < 0:
        k1, p1 = -k1, jac_neg(p1)
    p2 = endo(p)
    if k2 < 0:
        k2, p2 = -k2, jac_neg(p2)
    if k1 == 0:
        return jac_mul(p2, k2)
    if k2 == 0:
        return jac_mul(p1, k1)
    both = jac_add(p1, p2)
    result = JAC_INF
    for bit in range(max(k1.bit_length(), k2.bit_length()) - 1, -1, -1):
        result = jac_double(result)
        b1 = (k1 >> bit) & 1
        b2 = (k2 >> bit) & 1
        if b1 and b2:
            result = jac_add(result, both)
        elif b1:
            result = jac_add(result, p1)
        elif b2:
            result = jac_add(result, p2)
    return result


def split_pairs(pairs: list) -> list:
    """Expand normalised ``(point, scalar)`` MSM pairs via GLV.

    Each pair becomes up to two pairs with ~half-width non-negative
    scalars: ``(P, |k1|)`` and ``(psi(P), |k2|)`` with sign folded into
    point negation.  Input points must be normalised (``z == 1``) so
    the outputs stay normalised for the bucket method's mixed
    additions.  Returns the new pair list and is lossless:
    sum k_i P_i is preserved exactly.
    """
    out = []
    for p, s in pairs:
        k1, k2 = decompose(s)
        if k1:
            out.append((jac_neg(p) if k1 < 0 else p, abs(k1)))
        if k2:
            q = endo(p)
            out.append((jac_neg(q) if k2 < 0 else q, abs(k2)))
    return out


#: Scalar bit-width bound after GLV decomposition: basis-norm bound plus
#: slack for the Babai round-off error (|k_i| <= max-norm * (1 + eps)).
HALF_BITS = max(
    abs(_V1[0]), abs(_V1[1]), abs(_V2[0]), abs(_V2[1])
).bit_length() + 2
