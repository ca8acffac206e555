"""Reference optimal-ate pairing for BN254 (the frozen seed implementation).

This is the affine, dense-F_q12 pairing the repository grew up with, kept
verbatim as the *oracle* for the one engine in ``src/``,
:mod:`repro.curve.pairing`: G2 points are untwisted into the curve over
F_q12, the Miller loop runs with one field inversion per line slope, the
Frobenius is computed as a full ``fq12_pow(x, Q)``, and the final
exponentiation is one ~3000-bit ``fq12_pow``.  Slow — a 2-pairing check
costs ~0.4 s in CPython — but independently simple, which is exactly what
``tests/test_pairing_fast.py`` and ``tests/test_differential.py`` need.

Until PR 20 this was ``repro.curve.pairing_ref`` and multiplied with the
live ``fq12_mul``.  The library's products are now straight-line kernels,
so the oracle carries private copies of the loop-based dense arithmetic it
was written against (``fq12`` ... ``fq12_eq`` below, the deleted
``repro.curve.fq12`` bodies unchanged) and of the seed's extended-Euclid
inversion: it shares nothing with the code it judges beyond the modulus,
the group classes and the error type.
"""

from __future__ import annotations

from repro.errors import CurveError, FieldError
from repro.curve.fq import Q
from repro.curve.g1 import G1
from repro.curve.g2 import G2
from repro.field.fr import MODULUS as R

# ----- dense F_q12 arithmetic (flat 12-tuples mod w^12 - 18 w^6 + 82) -------

DEGREE = 12

#: w^12 = 18*w^6 - 82, i.e. modulus polynomial coefficients for degrees 0..11.
_MOD_COEFF_6 = 18
_MOD_COEFF_0 = -82

FQ12_ONE = (1,) + (0,) * 11


def fq12(coeffs) -> tuple:
    """Build an F_q12 element from up to 12 coefficients (low degree first)."""
    coeffs = [c % Q for c in coeffs]
    if len(coeffs) > DEGREE:
        raise FieldError("too many coefficients for Fq12")
    return tuple(coeffs + [0] * (DEGREE - len(coeffs)))


def fq12_sub(a: tuple, b: tuple) -> tuple:
    return tuple((x - y) % Q for x, y in zip(a, b))


def fq12_neg(a: tuple) -> tuple:
    return tuple(-x % Q for x in a)


def fq12_scalar(a: tuple, k: int) -> tuple:
    k %= Q
    return tuple(x * k % Q for x in a)


def _reduce(prod: list) -> tuple:
    """Fold degrees 22..12 down using w^d = 18 w^(d-6) - 82 w^(d-12)."""
    for d in range(22, 11, -1):
        c = prod[d]
        if c:
            prod[d - 6] += _MOD_COEFF_6 * c
            prod[d - 12] += _MOD_COEFF_0 * c
    return tuple(c % Q for c in prod[:12])


def fq12_mul(a: tuple, b: tuple) -> tuple:
    """Schoolbook 12x12 product followed by reduction by w^12 - 18w^6 + 82."""
    prod = [0] * 23
    for i in range(12):
        ai = a[i]
        if ai == 0:
            continue
        for j in range(12):
            bj = b[j]
            if bj:
                prod[i + j] += ai * bj
    return _reduce(prod)


def fq12_eq(a: tuple, b: tuple) -> bool:
    return all(x % Q == y % Q for x, y in zip(a, b))


# ----- the pairing ----------------------------------------------------------

#: BN parameter-derived Miller loop count (6u + 2 for u = 4965661367192848881).
ATE_LOOP_COUNT = 29793968203157093288
_LOG_ATE = 63

#: Final exponentiation power.
FINAL_EXP = (Q**12 - 1) // R

# An F_q12 affine point is a (x, y) pair of 12-tuples; None is infinity.


def _poly_degree(p: list[int]) -> int:
    d = len(p) - 1
    while d >= 0 and p[d] % Q == 0:
        d -= 1
    return d


def _poly_rounded_div(a: list[int], b: list[int]) -> list[int]:
    """Quotient of polynomial division over F_q (py_ecc style)."""
    dega = _poly_degree(a)
    degb = _poly_degree(b)
    temp = [x % Q for x in a]
    out = [0] * len(a)
    lead_inv = pow(b[degb], Q - 2, Q)
    for i in range(dega - degb, -1, -1):
        out[i] = (out[i] + temp[degb + i] * lead_inv) % Q
        for c in range(degb + 1):
            temp[c + i] = (temp[c + i] - out[i] * b[c]) % Q
    return out[: _poly_degree(out) + 1] or [0]


def fq12_inv_euclid(a: tuple) -> tuple:
    """The seed's F_q12 inverse: extended Euclid on polynomials."""
    lm: list[int] = [1] + [0] * DEGREE
    hm: list[int] = [0] * (DEGREE + 1)
    low: list[int] = [c % Q for c in a] + [0]
    # Modulus polynomial m(w) = w^12 - 18 w^6 + 82 (note: the *negatives* of
    # the reduction rule w^12 = 18 w^6 - 82).
    high: list[int] = (
        [(-_MOD_COEFF_0) % Q] + [0] * 5 + [(-_MOD_COEFF_6) % Q] + [0] * 5 + [1]
    )
    while _poly_degree(low) > 0:
        r = _poly_rounded_div(high, low)
        r += [0] * (DEGREE + 1 - len(r))
        nm = list(hm)
        new = list(high)
        for i in range(DEGREE + 1):
            li = lm[i]
            lo = low[i]
            if li == 0 and lo == 0:
                continue
            for j in range(DEGREE + 1 - i):
                rj = r[j]
                if rj:
                    nm[i + j] = (nm[i + j] - li * rj) % Q
                    new[i + j] = (new[i + j] - lo * rj) % Q
        lm, low, hm, high = nm, new, lm, low
    c0_inv = pow(low[0], Q - 2, Q)
    return tuple(lm[i] * c0_inv % Q for i in range(DEGREE))


def _fq12_pow_dense(a: tuple, e: int) -> tuple:
    """Square-and-multiply entirely on dense schoolbook products."""
    result = FQ12_ONE
    base = a
    while e:
        if e & 1:
            result = fq12_mul(result, base)
        base = fq12_mul(base, base)
        e >>= 1
    return result


def _twist(pt: G2) -> tuple | None:
    """Untwist a G2 point into the curve over F_q12."""
    if pt.inf:
        return None
    x0, x1 = pt.x
    y0, y1 = pt.y
    # Map (a0 + a1*u) to the Fq12 polynomial basis: coefficients at w^0 and
    # w^6 (since w^6 = 9 + u), then shift by w^2 / w^3.
    xc = fq12([(x0 - 9 * x1) % Q] + [0] * 5 + [x1 % Q])
    yc = fq12([(y0 - 9 * y1) % Q] + [0] * 5 + [y1 % Q])
    w2 = fq12([0, 0, 1])
    w3 = fq12([0, 0, 0, 1])
    return (fq12_mul(xc, w2), fq12_mul(yc, w3))


def _cast_g1(pt: G1) -> tuple | None:
    if pt.inf:
        return None
    return (fq12([pt.x]), fq12([pt.y]))


def _pt_double(p: tuple) -> tuple | None:
    x, y = p
    if all(c == 0 for c in y):
        return None
    m = fq12_mul(fq12_scalar(fq12_mul(x, x), 3), fq12_inv_euclid(fq12_scalar(y, 2)))
    x3 = fq12_sub(fq12_mul(m, m), fq12_scalar(x, 2))
    y3 = fq12_sub(fq12_mul(m, fq12_sub(x, x3)), y)
    return (x3, y3)


def _pt_add(p: tuple | None, q: tuple | None) -> tuple | None:
    if p is None:
        return q
    if q is None:
        return p
    x1, y1 = p
    x2, y2 = q
    if fq12_eq(x1, x2):
        if fq12_eq(y1, y2):
            return _pt_double(p)
        return None
    m = fq12_mul(fq12_sub(y2, y1), fq12_inv_euclid(fq12_sub(x2, x1)))
    x3 = fq12_sub(fq12_sub(fq12_mul(m, m), x1), x2)
    y3 = fq12_sub(fq12_mul(m, fq12_sub(x1, x3)), y1)
    return (x3, y3)


def _linefunc(p1: tuple, p2: tuple, t: tuple) -> tuple:
    """Evaluate the line through p1, p2 at point t (all over F_q12)."""
    x1, y1 = p1
    x2, y2 = p2
    xt, yt = t
    if not fq12_eq(x1, x2):
        m = fq12_mul(fq12_sub(y2, y1), fq12_inv_euclid(fq12_sub(x2, x1)))
        return fq12_sub(fq12_mul(m, fq12_sub(xt, x1)), fq12_sub(yt, y1))
    if fq12_eq(y1, y2):
        m = fq12_mul(
            fq12_scalar(fq12_mul(x1, x1), 3), fq12_inv_euclid(fq12_scalar(y1, 2))
        )
        return fq12_sub(fq12_mul(m, fq12_sub(xt, x1)), fq12_sub(yt, y1))
    return fq12_sub(xt, x1)


def _frobenius_pt(p: tuple) -> tuple:
    """Apply the q-power Frobenius to an F_q12 point (componentwise x^q)."""
    return (_fq12_pow_dense(p[0], Q), _fq12_pow_dense(p[1], Q))


def miller_loop(q_pt: G2, p_pt: G1) -> tuple:
    """Run the Miller loop WITHOUT the final exponentiation."""
    tq = _twist(q_pt)
    tp = _cast_g1(p_pt)
    if tq is None or tp is None:
        return FQ12_ONE
    r_pt: tuple | None = tq
    f = FQ12_ONE
    for i in range(_LOG_ATE, -1, -1):
        f = fq12_mul(fq12_mul(f, f), _linefunc(r_pt, r_pt, tp))
        r_pt = _pt_double(r_pt)
        if ATE_LOOP_COUNT & (1 << i):
            f = fq12_mul(f, _linefunc(r_pt, tq, tp))
            r_pt = _pt_add(r_pt, tq)
    q1 = _frobenius_pt(tq)
    nq2 = _frobenius_pt(q1)
    nq2 = (nq2[0], fq12_neg(nq2[1]))
    f = fq12_mul(f, _linefunc(r_pt, q1, tp))
    r_pt = _pt_add(r_pt, q1)
    f = fq12_mul(f, _linefunc(r_pt, nq2, tp))
    return f


def final_exponentiation(f: tuple) -> tuple:
    """Raise a Miller-loop output to (q^12 - 1)/r."""
    return _fq12_pow_dense(f, FINAL_EXP)


def pairing(p_pt: G1, q_pt: G2) -> tuple:
    """Compute the full pairing e(P, Q) as an F_q12 element."""
    if not isinstance(p_pt, G1) or not isinstance(q_pt, G2):
        raise CurveError("pairing expects (G1, G2)")
    return final_exponentiation(miller_loop(q_pt, p_pt))


def pairing_check(pairs: list[tuple[G1, G2]]) -> bool:
    """Return True iff the product of pairings over ``pairs`` equals one.

    Computes prod_i e(P_i, Q_i) == 1 with a single final exponentiation,
    the standard trick that makes multi-pairing verification ~k times
    cheaper than k separate pairings.
    """
    acc = FQ12_ONE
    for p_pt, q_pt in pairs:
        acc = fq12_mul(acc, miller_loop(q_pt, p_pt))
    return fq12_eq(final_exponentiation(acc), FQ12_ONE)
