"""The degree-12 extension field F_q12 used by the BN254 pairing.

Elements are 12-tuples of ints: the coefficients of a polynomial in ``w``
reduced modulo ``w^12 - 18*w^6 + 82`` (the flat representation, equivalent
to the F_q2/F_q6/F_q12 tower with ``w^6 = xi = 9 + u``).

The four products the pairing spends its time in are written out straight
line on twelve locals, with one ``% Q`` per output coefficient — Python
integers do not overflow, so every intermediate sum stays unreduced:

- :func:`fq12_mul` — dense product, one Karatsuba level on the ``w^6``
  split (108 base products);
- :func:`fq12_square` — the same split with symmetric halves (78);
- :func:`fq12_mul_line` — multiply by a unit-normalised Miller-loop line
  ``1 + e1*w + e3*w^3`` (48);
- :func:`fq12_cyclotomic_square` — the Granger-Scott squaring valid in the
  cyclotomic subgroup (18), driving the final exponentiation's hard part.

All three products share one reduction.  Write ``a = A0 + A1*W`` with
``W = w^6`` and ``A0, A1`` of degree 5 in ``w``; then with ``P = A0*B0``,
``R = A1*B1`` and ``M = A0*B1 + A1*B0 + 18*R``, the rule ``W^2 = 18*W - 82``
gives ``a*b = (P - 82*R) + M*W``.  ``P``, ``R`` and ``M`` have degree 10,
so splitting each at ``w^6`` once more (``X = X_lo + X_hi*W``) lands every
term on a coefficient below 12:

    ``lo = P_lo - 82*(R_lo + M_hi)``,
    ``hi = P_hi - 82*R_hi + M_lo + 18*M_hi``.

The *tower structure* is recovered on demand (:func:`fq12_to_tower` /
:func:`fq12_from_tower`) where it wins outright: :func:`fq12_frobenius`
(precomputed ``gamma`` tables, no big exponentiation) and :func:`fq12_inv`
(the tower norm chain, one F_q inversion).  The loop-based schoolbook
product these kernels replaced is the differential oracle in
``tests/pairing_oracle.py``.

Tower coordinate convention: an element is ``sum_j c_j * w^j`` with
``c_j`` in F_q2 and ``u = w^6 - 9``, so flat index ``j`` holds
``c_j[0] - 9*c_j[1]`` and flat index ``j + 6`` holds ``c_j[1]``.
"""

from __future__ import annotations

from repro.errors import FieldError
from repro.curve.fq import Q
from repro.curve.fq2 import (
    XI,
    fq2_add,
    fq2_inv,
    fq2_mul,
    fq2_mul_by_nonresidue,
    fq2_neg,
    fq2_pow,
    fq2_square,
    fq2_sub,
)

DEGREE = 12

FQ12_ZERO = (0,) * 12
FQ12_ONE = (1,) + (0,) * 11


def fq12(coeffs) -> tuple:
    """Build an F_q12 element from up to 12 coefficients (low degree first)."""
    coeffs = [c % Q for c in coeffs]
    if len(coeffs) > DEGREE:
        raise FieldError("too many coefficients for Fq12")
    return tuple(coeffs + [0] * (DEGREE - len(coeffs)))


# ----- straight-line products ----------------------------------------------
#
# In each kernel p_k, r_k, m_k are the degree-k coefficients of P, R and M
# from the module docstring, and the return tuple is the shared fold.


def fq12_mul(a: tuple, b: tuple) -> tuple:
    """Dense product: Karatsuba on the ``w^6`` split, 3 x 36 base products.

    The cross term comes from ``(A0 + A1)(B0 + B1) - P - R``, so
    ``m_k = s*t - p_k + 17*r_k``.
    """
    a0, a1, a2, a3, a4, a5, a6, a7, a8, a9, a10, a11 = a
    b0, b1, b2, b3, b4, b5, b6, b7, b8, b9, b10, b11 = b
    s0 = a0 + a6
    s1 = a1 + a7
    s2 = a2 + a8
    s3 = a3 + a9
    s4 = a4 + a10
    s5 = a5 + a11
    t0 = b0 + b6
    t1 = b1 + b7
    t2 = b2 + b8
    t3 = b3 + b9
    t4 = b4 + b10
    t5 = b5 + b11
    p0 = a0 * b0
    p1 = a0 * b1 + a1 * b0
    p2 = a0 * b2 + a1 * b1 + a2 * b0
    p3 = a0 * b3 + a1 * b2 + a2 * b1 + a3 * b0
    p4 = a0 * b4 + a1 * b3 + a2 * b2 + a3 * b1 + a4 * b0
    p5 = a0 * b5 + a1 * b4 + a2 * b3 + a3 * b2 + a4 * b1 + a5 * b0
    p6 = a1 * b5 + a2 * b4 + a3 * b3 + a4 * b2 + a5 * b1
    p7 = a2 * b5 + a3 * b4 + a4 * b3 + a5 * b2
    p8 = a3 * b5 + a4 * b4 + a5 * b3
    p9 = a4 * b5 + a5 * b4
    p10 = a5 * b5
    r0 = a6 * b6
    r1 = a6 * b7 + a7 * b6
    r2 = a6 * b8 + a7 * b7 + a8 * b6
    r3 = a6 * b9 + a7 * b8 + a8 * b7 + a9 * b6
    r4 = a6 * b10 + a7 * b9 + a8 * b8 + a9 * b7 + a10 * b6
    r5 = a6 * b11 + a7 * b10 + a8 * b9 + a9 * b8 + a10 * b7 + a11 * b6
    r6 = a7 * b11 + a8 * b10 + a9 * b9 + a10 * b8 + a11 * b7
    r7 = a8 * b11 + a9 * b10 + a10 * b9 + a11 * b8
    r8 = a9 * b11 + a10 * b10 + a11 * b9
    r9 = a10 * b11 + a11 * b10
    r10 = a11 * b11
    m0 = s0 * t0 + 17 * r0 - p0
    m1 = s0 * t1 + s1 * t0 + 17 * r1 - p1
    m2 = s0 * t2 + s1 * t1 + s2 * t0 + 17 * r2 - p2
    m3 = s0 * t3 + s1 * t2 + s2 * t1 + s3 * t0 + 17 * r3 - p3
    m4 = s0 * t4 + s1 * t3 + s2 * t2 + s3 * t1 + s4 * t0 + 17 * r4 - p4
    m5 = s0 * t5 + s1 * t4 + s2 * t3 + s3 * t2 + s4 * t1 + s5 * t0 + 17 * r5 - p5
    m6 = s1 * t5 + s2 * t4 + s3 * t3 + s4 * t2 + s5 * t1 + 17 * r6 - p6
    m7 = s2 * t5 + s3 * t4 + s4 * t3 + s5 * t2 + 17 * r7 - p7
    m8 = s3 * t5 + s4 * t4 + s5 * t3 + 17 * r8 - p8
    m9 = s4 * t5 + s5 * t4 + 17 * r9 - p9
    m10 = s5 * t5 + 17 * r10 - p10
    return (
        (p0 - 82 * (r0 + m6)) % Q,
        (p1 - 82 * (r1 + m7)) % Q,
        (p2 - 82 * (r2 + m8)) % Q,
        (p3 - 82 * (r3 + m9)) % Q,
        (p4 - 82 * (r4 + m10)) % Q,
        (p5 - 82 * r5) % Q,
        (p6 - 82 * r6 + m0 + 18 * m6) % Q,
        (p7 - 82 * r7 + m1 + 18 * m7) % Q,
        (p8 - 82 * r8 + m2 + 18 * m8) % Q,
        (p9 - 82 * r9 + m3 + 18 * m9) % Q,
        (p10 - 82 * r10 + m4 + 18 * m10) % Q,
        m5 % Q,
    )


def fq12_square(a: tuple) -> tuple:
    """Squaring: symmetric halves (2 x 21) and the 36-product cross term."""
    a0, a1, a2, a3, a4, a5, a6, a7, a8, a9, a10, a11 = a
    p0 = a0 * a0
    p1 = 2 * a0 * a1
    p2 = 2 * a0 * a2 + a1 * a1
    p3 = 2 * (a0 * a3 + a1 * a2)
    p4 = 2 * (a0 * a4 + a1 * a3) + a2 * a2
    p5 = 2 * (a0 * a5 + a1 * a4 + a2 * a3)
    p6 = 2 * (a1 * a5 + a2 * a4) + a3 * a3
    p7 = 2 * (a2 * a5 + a3 * a4)
    p8 = 2 * a3 * a5 + a4 * a4
    p9 = 2 * a4 * a5
    p10 = a5 * a5
    r0 = a6 * a6
    r1 = 2 * a6 * a7
    r2 = 2 * a6 * a8 + a7 * a7
    r3 = 2 * (a6 * a9 + a7 * a8)
    r4 = 2 * (a6 * a10 + a7 * a9) + a8 * a8
    r5 = 2 * (a6 * a11 + a7 * a10 + a8 * a9)
    r6 = 2 * (a7 * a11 + a8 * a10) + a9 * a9
    r7 = 2 * (a8 * a11 + a9 * a10)
    r8 = 2 * a9 * a11 + a10 * a10
    r9 = 2 * a10 * a11
    r10 = a11 * a11
    m0 = 2 * a0 * a6 + 18 * r0
    m1 = 2 * (a0 * a7 + a1 * a6) + 18 * r1
    m2 = 2 * (a0 * a8 + a1 * a7 + a2 * a6) + 18 * r2
    m3 = 2 * (a0 * a9 + a1 * a8 + a2 * a7 + a3 * a6) + 18 * r3
    m4 = 2 * (a0 * a10 + a1 * a9 + a2 * a8 + a3 * a7 + a4 * a6) + 18 * r4
    m5 = 2 * (a0 * a11 + a1 * a10 + a2 * a9 + a3 * a8 + a4 * a7 + a5 * a6) + 18 * r5
    m6 = 2 * (a1 * a11 + a2 * a10 + a3 * a9 + a4 * a8 + a5 * a7) + 18 * r6
    m7 = 2 * (a2 * a11 + a3 * a10 + a4 * a9 + a5 * a8) + 18 * r7
    m8 = 2 * (a3 * a11 + a4 * a10 + a5 * a9) + 18 * r8
    m9 = 2 * (a4 * a11 + a5 * a10) + 18 * r9
    m10 = 2 * a5 * a11 + 18 * r10
    return (
        (p0 - 82 * (r0 + m6)) % Q,
        (p1 - 82 * (r1 + m7)) % Q,
        (p2 - 82 * (r2 + m8)) % Q,
        (p3 - 82 * (r3 + m9)) % Q,
        (p4 - 82 * (r4 + m10)) % Q,
        (p5 - 82 * r5) % Q,
        (p6 - 82 * r6 + m0 + 18 * m6) % Q,
        (p7 - 82 * r7 + m1 + 18 * m7) % Q,
        (p8 - 82 * r8 + m2 + 18 * m8) % Q,
        (p9 - 82 * r9 + m3 + 18 * m9) % Q,
        (p10 - 82 * r10 + m4 + 18 * m10) % Q,
        m5 % Q,
    )


def fq12_mul_line(a: tuple, l1: int, l3: int, l7: int, l9: int) -> tuple:
    """Multiply ``a`` by ``1 + l1*w + l3*w^3 + l7*w^7 + l9*w^9``.

    That is the flat image of ``1 + e1*w + e3*w^3`` with ``e1, e3`` in
    F_q2 (``l_j = e_j[0] - 9*e_j[1]``, ``l_(j+6) = e_j[1]``) — a Miller
    loop line divided by its ``w^0`` coefficient (see
    :mod:`repro.curve.pairing`).  Four coefficients against twelve: 48
    base products, and the leading 1 costs none.
    """
    a0, a1, a2, a3, a4, a5, a6, a7, a8, a9, a10, a11 = a
    p1 = a1 + l1 * a0
    p2 = a2 + l1 * a1
    p3 = a3 + l1 * a2 + l3 * a0
    p4 = a4 + l1 * a3 + l3 * a1
    p5 = a5 + l1 * a4 + l3 * a2
    p6 = l1 * a5 + l3 * a3
    p7 = l3 * a4
    p8 = l3 * a5
    r1 = l7 * a6
    r2 = l7 * a7
    r3 = l7 * a8 + l9 * a6
    r4 = l7 * a9 + l9 * a7
    r5 = l7 * a10 + l9 * a8
    r6 = l7 * a11 + l9 * a9
    r7 = l9 * a10
    r8 = l9 * a11
    m1 = a7 + l1 * a6 + l7 * a0 + 18 * r1
    m2 = a8 + l1 * a7 + l7 * a1 + 18 * r2
    m3 = a9 + l1 * a8 + l3 * a6 + l7 * a2 + l9 * a0 + 18 * r3
    m4 = a10 + l1 * a9 + l3 * a7 + l7 * a3 + l9 * a1 + 18 * r4
    m5 = a11 + l1 * a10 + l3 * a8 + l7 * a4 + l9 * a2 + 18 * r5
    m6 = l1 * a11 + l3 * a9 + l7 * a5 + l9 * a3 + 18 * r6
    m7 = l3 * a10 + l9 * a4 + 18 * r7
    m8 = l3 * a11 + l9 * a5 + 18 * r8
    return (
        (a0 - 82 * m6) % Q,
        (p1 - 82 * (r1 + m7)) % Q,
        (p2 - 82 * (r2 + m8)) % Q,
        (p3 - 82 * r3) % Q,
        (p4 - 82 * r4) % Q,
        (p5 - 82 * r5) % Q,
        (p6 - 82 * r6 + a6 + 18 * m6) % Q,
        (p7 - 82 * r7 + m1 + 18 * m7) % Q,
        (p8 - 82 * r8 + m2 + 18 * m8) % Q,
        m3 % Q,
        m4 % Q,
        m5 % Q,
    )


def fq12_pow(a: tuple, e: int) -> tuple:
    if e < 0:
        a = fq12_inv(a)
        e = -e
    result = FQ12_ONE
    base = a
    while e:
        if e & 1:
            result = fq12_mul(result, base)
        base = fq12_square(base)
        e >>= 1
    return result


# ----- tower views ---------------------------------------------------------


def fq12_to_tower(a: tuple) -> list:
    """The six F_q2 tower coefficients ``c_j`` of ``sum_j c_j w^j``."""
    return [((a[j] + 9 * a[j + 6]) % Q, a[j + 6]) for j in range(6)]


def fq12_from_tower(coeffs: list) -> tuple:
    """Inverse of :func:`fq12_to_tower`."""
    out = [0] * 12
    for j, (c0, c1) in enumerate(coeffs):
        out[j] = (c0 - 9 * c1) % Q
        out[j + 6] = c1 % Q
    return tuple(out)


def fq12_conjugate(a: tuple) -> tuple:
    """``a^(q^6)``: negate the odd-degree coefficients.

    In the cyclotomic subgroup (any Miller output after the easy part of
    the final exponentiation) this *is* the inverse, which is why the
    hard part never needs a real inversion.
    """
    return tuple(a[i] % Q if i % 2 == 0 else -a[i] % Q for i in range(12))


# Frobenius gamma tables: (w^j)^(q^i) = conj^i(w^j) * xi^(j*(q^i-1)/6) * w^j,
# so pi^i acts coefficientwise as c_j -> conj^i(c_j) * _FROB_GAMMA[i-1][j].
# Computed once at import (three fq2_pow calls per table).
_FROB_GAMMA = tuple(
    tuple(fq2_pow(XI, j * ((Q**i - 1) // 6)) for j in range(6)) for i in (1, 2, 3)
)


def fq12_frobenius(a: tuple, power: int = 1) -> tuple:
    """``a^(q^power)`` for ``power`` in {1, 2, 3} via the gamma tables."""
    if power not in (1, 2, 3):
        raise FieldError("fq12_frobenius supports powers 1..3, got %r" % (power,))
    gammas = _FROB_GAMMA[power - 1]
    odd = power % 2
    coeffs = fq12_to_tower(a)
    out = []
    for j, c in enumerate(coeffs):
        if odd:
            c = (c[0], -c[1] % Q)
        out.append(fq2_mul(c, gammas[j]))
    return fq12_from_tower(out)


# ----- cyclotomic subgroup kernels ----------------------------------------


def fq12_cyclotomic_square(a: tuple) -> tuple:
    """Granger-Scott squaring, valid when ``a^(q^6+1) = 1``.

    Three F_q4 squarings of three F_q2 squarings each — 18 base products
    against 78 — only correct inside the cyclotomic subgroup, which is
    where the final exponentiation's hard part lives.  With tower
    coefficients ``c_j`` the F_q4 = F_q2[y]/(y^2 - xi) pairs are
    ``(c_0, c_3)``, ``(c_1, c_4)``, ``(c_2, c_5)``, and the square of a
    pair ``(g, h)`` is ``(g^2 + xi*h^2, (g + h)^2 - g^2 - h^2)``.
    """
    a0, a1, a2, a3, a4, a5, a6, a7, a8, a9, a10, a11 = a
    # c_j = x_j + a_(j+6) * u, the real parts left unreduced.
    x0 = a0 + 9 * a6
    x1 = a1 + 9 * a7
    x2 = a2 + 9 * a8
    x3 = a3 + 9 * a9
    x4 = a4 + 9 * a10
    x5 = a5 + 9 * a11
    # (A, B) = (c_0, c_3)^2
    gx = (x0 + a6) * (x0 - a6)
    gy = 2 * x0 * a6
    hx = (x3 + a9) * (x3 - a9)
    hy = 2 * x3 * a9
    sx = x0 + x3
    sy = a6 + a9
    ax = gx + 9 * hx - hy
    ay = gy + hx + 9 * hy
    bx = (sx + sy) * (sx - sy) - gx - hx
    by = 2 * sx * sy - gy - hy
    # (C, D) = (c_1, c_4)^2
    gx = (x1 + a7) * (x1 - a7)
    gy = 2 * x1 * a7
    hx = (x4 + a10) * (x4 - a10)
    hy = 2 * x4 * a10
    sx = x1 + x4
    sy = a7 + a10
    cx = gx + 9 * hx - hy
    cy = gy + hx + 9 * hy
    dx = (sx + sy) * (sx - sy) - gx - hx
    dy = 2 * sx * sy - gy - hy
    # (E, F) = (c_2, c_5)^2
    gx = (x2 + a8) * (x2 - a8)
    gy = 2 * x2 * a8
    hx = (x5 + a11) * (x5 - a11)
    hy = 2 * x5 * a11
    sx = x2 + x5
    sy = a8 + a11
    ex = gx + 9 * hx - hy
    ey = gy + hx + 9 * hy
    fx = (sx + sy) * (sx - sy) - gx - hx
    fy = 2 * sx * sy - gy - hy
    # c'_0 = 3A - 2c_0, c'_1 = 3*xi*F + 2c_1, c'_2 = 3C - 2c_2,
    # c'_3 = 3B + 2c_3, c'_4 = 3E - 2c_4,    c'_5 = 3D + 2c_5;
    # a coefficient (x, y) goes back to flat as (x - 9y, y).
    y0 = 3 * ay - 2 * a6
    y1 = 3 * (fx + 9 * fy) + 2 * a7
    y2 = 3 * cy - 2 * a8
    y3 = 3 * by + 2 * a9
    y4 = 3 * ey - 2 * a10
    y5 = 3 * dy + 2 * a11
    return (
        (3 * ax - 2 * x0 - 9 * y0) % Q,
        (3 * (9 * fx - fy) + 2 * x1 - 9 * y1) % Q,
        (3 * cx - 2 * x2 - 9 * y2) % Q,
        (3 * bx + 2 * x3 - 9 * y3) % Q,
        (3 * ex - 2 * x4 - 9 * y4) % Q,
        (3 * dx + 2 * x5 - 9 * y5) % Q,
        y0 % Q,
        y1 % Q,
        y2 % Q,
        y3 % Q,
        y4 % Q,
        y5 % Q,
    )


def naf_digits(k: int) -> list[int]:
    """Non-adjacent form of ``k >= 0``, low digit first: digits in
    (-1, 0, 1), no two adjacent non-zero, the top digit 1."""
    digits = []
    while k:
        d = 2 - (k & 3) if k & 1 else 0
        digits.append(d)
        k = (k - d) >> 1
    return digits


def fq12_cyclotomic_exp(a: tuple, e: int) -> tuple:
    """``a^e`` with cyclotomic squarings (``a`` must be cyclotomic).

    Conjugation is inversion in the cyclotomic subgroup, exactly, so the
    exponent is walked in non-adjacent form (a product by ``conj(a)`` on
    a negative digit) and a negative exponent starts from ``conj(a)``.
    """
    if e == 0:
        return FQ12_ONE
    if e < 0:
        a = fq12_conjugate(a)
        e = -e
    a_inv = fq12_conjugate(a)
    result = a
    for d in naf_digits(e)[-2::-1]:  # below the top digit, high to low
        result = fq12_cyclotomic_square(result)
        if d:
            result = fq12_mul(result, a if d > 0 else a_inv)
    return result


# ----- F_q6 helpers for the tower inversion --------------------------------


def _fq6_mul(a: tuple, b: tuple) -> tuple:
    """Toom-style F_q6 product on (c0, c1, c2) triples over F_q2."""
    a0, a1, a2 = a
    b0, b1, b2 = b
    v0 = fq2_mul(a0, b0)
    v1 = fq2_mul(a1, b1)
    v2 = fq2_mul(a2, b2)
    c0 = fq2_add(
        v0,
        fq2_mul_by_nonresidue(
            fq2_sub(fq2_sub(fq2_mul(fq2_add(a1, a2), fq2_add(b1, b2)), v1), v2)
        ),
    )
    c1 = fq2_add(
        fq2_sub(fq2_sub(fq2_mul(fq2_add(a0, a1), fq2_add(b0, b1)), v0), v1),
        fq2_mul_by_nonresidue(v2),
    )
    c2 = fq2_add(
        fq2_sub(fq2_sub(fq2_mul(fq2_add(a0, a2), fq2_add(b0, b2)), v0), v2), v1
    )
    return (c0, c1, c2)


def _fq6_inv(a: tuple) -> tuple:
    """F_q6 inversion by the norm-like chain (one F_q2 inversion)."""
    a0, a1, a2 = a
    c0 = fq2_sub(fq2_square(a0), fq2_mul_by_nonresidue(fq2_mul(a1, a2)))
    c1 = fq2_sub(fq2_mul_by_nonresidue(fq2_square(a2)), fq2_mul(a0, a1))
    c2 = fq2_sub(fq2_square(a1), fq2_mul(a0, a2))
    t = fq2_add(
        fq2_mul(a0, c0),
        fq2_mul_by_nonresidue(fq2_add(fq2_mul(a2, c1), fq2_mul(a1, c2))),
    )
    tinv = fq2_inv(t)
    return (fq2_mul(c0, tinv), fq2_mul(c1, tinv), fq2_mul(c2, tinv))


def _fq6_mul_by_v(a: tuple) -> tuple:
    """Multiply an F_q6 element by ``v`` (``v^3 = xi``)."""
    return (fq2_mul_by_nonresidue(a[2]), a[0], a[1])


def fq12_inv(a: tuple) -> tuple:
    """Inversion via the tower norm chain.

    Writing ``a = c0 + c1*w`` over F_q6 (``w^2 = v``), the inverse is
    ``(c0 - c1*w) / (c0^2 - v*c1^2)`` — two F_q6 products, one F_q6
    inversion and ultimately a single F_q inversion, replacing the
    seed's extended-Euclid polynomial GCD (kept by the reference oracle,
    ``tests/pairing_oracle.py``).
    """
    if all(c % Q == 0 for c in a):
        raise FieldError("inverse of zero in Fq12")
    t = fq12_to_tower(a)
    c0 = (t[0], t[2], t[4])
    c1 = (t[1], t[3], t[5])
    c0sq = _fq6_mul(c0, c0)
    c1sq = _fq6_mul(c1, c1)
    norm = tuple(fq2_sub(x, y) for x, y in zip(c0sq, _fq6_mul_by_v(c1sq)))
    ninv = _fq6_inv(norm)
    r0 = _fq6_mul(c0, ninv)
    r1 = _fq6_mul(c1, ninv)
    return fq12_from_tower(
        [r0[0], fq2_neg(r1[0]), r0[1], fq2_neg(r1[1]), r0[2], fq2_neg(r1[2])]
    )


def fq12_eq(a: tuple, b: tuple) -> bool:
    return all(x % Q == y % Q for x, y in zip(a, b))
