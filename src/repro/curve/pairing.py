"""Fast optimal-ate pairing e: G1 x G2 -> F_q12 for BN254.

The repository's one pairing engine (the affine dense-F_q12 seed survives
only as the test oracle ``tests/pairing_oracle.py``):

- **Projective Miller loop over F_q2.**  The G2 point walks the ate loop
  in homogeneous projective coordinates on the *twist* with explicit
  doubling/addition line formulas — zero field inversions in the loop.
- **Unit-normalised lines.**  A line evaluated at P in G1 is
  ``c0*yP + c1*xP*w + c2*w^3`` — non-zero only at tower positions
  (0, 1, 3).  :func:`prepare_g2` divides every line by ``c0`` (one
  batched inversion for the whole sequence) and the loop scales by
  ``xP/yP`` and ``1/yP``, so what reaches the accumulator is
  ``1 + e1*w + e3*w^3`` and :func:`repro.curve.fq12.fq12_mul_line` pays
  48 base products instead of 72.  The discarded factor ``c0*yP`` lies in
  F_q2, which the ``q^6 - 1`` in the final exponent annihilates.
- **One loop for k pairs.**  :func:`multi_miller_loop` keeps a single
  accumulator: the 64 squarings are paid once a *check*, each pair adds
  only its line products.
- **A signed schedule.**  Below its top bit ``6u + 2`` is walked in
  non-adjacent form — a line through ``-Q`` on a negative digit — so a
  pair pays 64 + 21 + 2 = 87 line products, not the 64 + 36 + 2 of the
  binary expansion.  The hard part walks ``u`` the same way (24 non-zero
  digits for 28), with the conjugate as the inverse.
- **Frobenius via gamma tables.**  The two loop-closing additions use
  the twisted q-power endomorphism computed with two precomputed F_q2
  constants, not a 254-bit ``fq12_pow``.
- **Cyclotomic final exponentiation.**  The exponent (q^12-1)/r splits
  into the easy part (q^6-1)(q^2+1) — conjugate, one inversion, one
  Frobenius — and the hard part (q^4-q^2+1)/r evaluated by the
  Devegili-Scott-Dahab addition chain driven by the BN parameter ``u``
  with Granger-Scott cyclotomic squarings.
- **Prepared G2.**  :func:`prepare_g2` caches the normalised line
  sequence of a fixed G2 point (SRS ``[1]_2``/``[tau]_2``, Groth16
  ``beta/gamma/delta``), so repeated verifications pay only the G1-side
  evaluation.  The backend engine keeps a ``prepared_g2`` cache and
  exposes the whole product check as its ``pairing_check`` kernel.

The raw Miller output differs from the reference oracle's by an F_q2
scaling factor per line (normalised projective vs affine lines), which
the final exponentiation annihilates — full pairings agree bit-for-bit,
and ``tests/test_pairing_fast.py`` asserts it.

:func:`pairing_check` verifies products of pairings with a *single* final
exponentiation, which is what the Plonk and Groth16 verifiers use.
"""

from __future__ import annotations

from repro.errors import CurveError, FieldError
from repro.curve.fq import Q, fq_batch_inverse
from repro.curve.fq2 import (
    FQ2_ONE,
    XI,
    fq2_add,
    fq2_batch_inverse,
    fq2_conjugate,
    fq2_mul,
    fq2_neg,
    fq2_pow,
    fq2_scalar,
    fq2_square,
    fq2_sub,
)
from repro.curve.fq12 import (
    FQ12_ONE,
    fq12_conjugate,
    fq12_cyclotomic_exp,
    fq12_cyclotomic_square,
    fq12_eq,
    fq12_frobenius,
    fq12_inv,
    fq12_mul,
    fq12_mul_line,
    fq12_square,
    naf_digits,
)
from repro.curve.g1 import G1
from repro.curve.g2 import B2, G2
from repro.field.fr import MODULUS as R

#: The BN curve parameter u: q and r are quartics in u, the ate loop runs
#: over 6u + 2 and the final exponentiation's hard part is a chain in u.
BN_U = 4965661367192848881

#: BN parameter-derived Miller loop count (6u + 2).
ATE_LOOP_COUNT = 29793968203157093288
_LOG_ATE = 63

#: Final exponentiation power (what the fast decomposition evaluates).
FINAL_EXP = (Q**12 - 1) // R

_TWO_INV = (Q + 1) // 2

#: Twisted q-power endomorphism constants: for Q' = (x, y) on the twist,
#: pi(Q') = (conj(x) * xi^((q-1)/3), conj(y) * xi^((q-1)/2)).
_TWIST_FROB_X = fq2_pow(XI, (Q - 1) // 3)
_TWIST_FROB_Y = fq2_pow(XI, (Q - 1) // 2)

#: 3 * b' for the twist curve, used by the projective doubling step.
_B2_3 = fq2_scalar(B2, 3)


#: Step codes of the ate schedule: double R, or add Q, -Q, pi(Q), -pi^2(Q).
_DOUBLE, _ADD_Q, _SUB_Q, _ADD_PI_Q, _ADD_NEG_PI2_Q = range(5)


def _ate_steps() -> tuple:
    """The ate loop as a flat schedule, one entry per line function."""
    steps = []
    # 6u+2 has 65 bits; the top bit is absorbed by starting at R = Q and
    # the 64 below it are walked in non-adjacent form: one doubling each,
    # and a line through Q or -Q on a non-zero digit (21 of them, against
    # 36 set bits).  A signed chain differs from the binary one by
    # vertical lines only, which the final exponentiation annihilates.
    for d in reversed(naf_digits(ATE_LOOP_COUNT - (1 << (_LOG_ATE + 1)))):
        steps.append(_DOUBLE)
        if d:
            steps.append(_ADD_Q if d > 0 else _SUB_Q)
    # The two Frobenius-twisted closing additions.
    return tuple(steps) + (_ADD_PI_Q, _ADD_NEG_PI2_Q)


#: Shared by the G2 side (which step produces each line) and the
#: accumulator side (square before a doubling line's product).
_ATE_STEPS = _ate_steps()


class PreparedG2:
    """The normalised line sequence of one G2 point's Miller loop.

    A projective line ``(c0, c1, c2)`` over F_q2 is stored divided by
    ``c0`` and already in flat F_q12 coordinates: ``(l1, l3, l7, l9)``
    with ``c1/c0 = (l1 + 9*l7) + l7*u`` and ``c2/c0 = (l3 + 9*l9) + l9*u``.
    The line evaluated at P = (xP, yP) in G1 is then, up to an F_q2
    factor, ``1 + (xP/yP)*(l1*w + l7*w^7) + (1/yP)*(l3*w^3 + l9*w^9)``.
    Preparing costs the whole G2-side loop (projective doublings and
    additions in F_q2, one batched inversion); evaluating is four F_q
    scalings per line.
    """

    __slots__ = ("lines", "inf")

    def __init__(self, lines: tuple, inf: bool):
        self.lines = lines
        self.inf = inf

    def __repr__(self) -> str:  # pragma: no cover
        return "PreparedG2(inf)" if self.inf else "PreparedG2(%d lines)" % len(self.lines)


def _double_step(x, y, z):
    """Projective doubling with tangent-line extraction (Costello et al.).

    Returns the doubled point and the line triple ``(-h, 3*x^2, e - b)``.
    """
    a = fq2_scalar(fq2_mul(x, y), _TWO_INV)
    b = fq2_square(y)
    c = fq2_square(z)
    e = fq2_mul(_B2_3, c)
    f = fq2_scalar(e, 3)
    g = fq2_scalar(fq2_add(b, f), _TWO_INV)
    h = fq2_sub(fq2_square(fq2_add(y, z)), fq2_add(b, c))
    i = fq2_sub(e, b)
    j = fq2_square(x)
    e2 = fq2_square(e)
    x3 = fq2_mul(a, fq2_sub(b, f))
    y3 = fq2_sub(fq2_square(g), fq2_scalar(e2, 3))
    z3 = fq2_mul(b, h)
    return x3, y3, z3, (fq2_neg(h), fq2_scalar(j, 3), i)


def _add_step(x, y, z, qx, qy):
    """Mixed projective addition R += Q with chord-line extraction."""
    theta = fq2_sub(y, fq2_mul(qy, z))
    lam = fq2_sub(x, fq2_mul(qx, z))
    c = fq2_square(theta)
    d = fq2_square(lam)
    e = fq2_mul(lam, d)
    f = fq2_mul(z, c)
    g = fq2_mul(x, d)
    h = fq2_add(e, fq2_sub(f, fq2_scalar(g, 2)))
    x3 = fq2_mul(lam, h)
    y3 = fq2_sub(fq2_mul(theta, fq2_sub(g, h)), fq2_mul(e, y))
    z3 = fq2_mul(z, e)
    j = fq2_sub(fq2_mul(theta, qx), fq2_mul(lam, qy))
    return x3, y3, z3, (lam, fq2_neg(theta), j)


def _mul_by_char(qx, qy):
    """The q-power Frobenius endomorphism in twist coordinates."""
    return (
        fq2_mul(fq2_conjugate(qx), _TWIST_FROB_X),
        fq2_mul(fq2_conjugate(qy), _TWIST_FROB_Y),
    )


def prepare_g2(q_pt: G2) -> PreparedG2:
    """Precompute the normalised Miller-loop lines for a G2 point.

    Runs the whole G2-side ate loop once: 64 doubling steps, one addition
    of Q or -Q per non-zero signed digit of 6u+2, plus the two
    Frobenius-twisted closing additions.  The result depends only on Q, so fixed verification-key
    points amortise it across every subsequent pairing (the backend
    engine's ``prepared_g2`` cache does exactly that).

    Every ``c0`` is non-zero on the r-torsion (``-2yz`` on a doubling,
    ``x - qx*z`` on an addition with R != +-Q); a point off it can
    degenerate, which raises :class:`CurveError`.
    """
    if not isinstance(q_pt, G2):
        raise CurveError("prepare_g2 expects a G2 point")
    if q_pt.inf:
        return PreparedG2((), True)
    q1 = _mul_by_char(q_pt.x, q_pt.y)
    q2x, q2y = _mul_by_char(*q1)
    addends = {
        _ADD_Q: (q_pt.x, q_pt.y),
        _SUB_Q: (q_pt.x, fq2_neg(q_pt.y)),
        _ADD_PI_Q: q1,
        _ADD_NEG_PI2_Q: (q2x, fq2_neg(q2y)),
    }
    projective = []
    x, y, z = q_pt.x, q_pt.y, FQ2_ONE
    for step in _ATE_STEPS:
        if step == _DOUBLE:
            x, y, z, line = _double_step(x, y, z)
        else:
            x, y, z, line = _add_step(x, y, z, *addends[step])
        projective.append(line)
    try:
        inverses = fq2_batch_inverse([c0 for c0, _, _ in projective])
    except FieldError:
        raise CurveError("degenerate Miller line: point is outside the r-torsion") from None
    lines = []
    for (_, c1, c2), c0_inv in zip(projective, inverses):
        e1 = fq2_mul(c1, c0_inv)
        e3 = fq2_mul(c2, c0_inv)
        lines.append(((e1[0] - 9 * e1[1]) % Q, (e3[0] - 9 * e3[1]) % Q, e1[1], e3[1]))
    return PreparedG2(tuple(lines), False)


def multi_miller_loop(pairs: list) -> tuple:
    """Product of Miller loops over ``(G1, PreparedG2 | G2)`` pairs.

    One accumulator for all pairs: squaring distributes over the product,
    so the result equals the F_q12 product of the one-pair loops exactly
    while the 64 squarings are paid once.  Pairs with a member at
    infinity contribute 1 and are skipped.
    """
    active = []
    for p_pt, q_pt in pairs:
        prep = q_pt if isinstance(q_pt, PreparedG2) else prepare_g2(q_pt)
        if not (prep.inf or p_pt.inf):
            active.append((prep.lines, p_pt))
    if not active:
        return FQ12_ONE
    # One F_q inversion for all the G1 points (y != 0: G1 has odd order).
    y_invs = fq_batch_inverse([p_pt.y for _, p_pt in active])
    scaled = [(lines, p_pt.x * yi % Q, yi) for (lines, p_pt), yi in zip(active, y_invs)]
    f = FQ12_ONE
    for idx, step in enumerate(_ATE_STEPS):
        if step == _DOUBLE:
            f = fq12_square(f)
        for lines, xs, ys in scaled:
            l1, l3, l7, l9 = lines[idx]
            f = fq12_mul_line(f, l1 * xs % Q, l3 * ys % Q, l7 * xs % Q, l9 * ys % Q)
    return f


def miller_loop_prepared(prep: PreparedG2, p_pt: G1) -> tuple:
    """Evaluate a prepared Miller loop at a G1 point (no final exp)."""
    return multi_miller_loop([(p_pt, prep)])


def miller_loop(q_pt: G2, p_pt: G1) -> tuple:
    """Run the Miller loop WITHOUT the final exponentiation."""
    return multi_miller_loop([(p_pt, q_pt)])


def final_exponentiation(f: tuple) -> tuple:
    """Raise a Miller-loop output to (q^12 - 1)/r, decomposed.

    Easy part ``(q^6-1)(q^2+1)``: one conjugation, one (tower) inversion
    and one Frobenius.  Hard part ``(q^4-q^2+1)/r``: the
    Devegili-Scott-Dahab chain — three cyclotomic exponentiations by the
    BN parameter u, a handful of Frobenius maps and multiplications, and
    conjugation standing in for inversion.  Evaluates the *exact* same
    exponent as ``fq12_pow(f, FINAL_EXP)``.
    """
    # Easy part: f <- f^((q^6 - 1)(q^2 + 1)).
    f = fq12_mul(fq12_conjugate(f), fq12_inv(f))
    f = fq12_mul(fq12_frobenius(f, 2), f)
    # Hard part (Devegili et al., "Implementing cryptographic pairings
    # over Barreto-Naehrig curves"): everything below lives in the
    # cyclotomic subgroup, so conjugation is inversion and squarings are
    # Granger-Scott.
    fu = fq12_cyclotomic_exp(f, BN_U)
    fu2 = fq12_cyclotomic_exp(fu, BN_U)
    fu3 = fq12_cyclotomic_exp(fu2, BN_U)
    y0 = fq12_mul(
        fq12_mul(fq12_frobenius(f, 1), fq12_frobenius(f, 2)), fq12_frobenius(f, 3)
    )
    y1 = fq12_conjugate(f)
    y2 = fq12_frobenius(fu2, 2)
    y3 = fq12_conjugate(fq12_frobenius(fu, 1))
    y4 = fq12_conjugate(fq12_mul(fu, fq12_frobenius(fu2, 1)))
    y5 = fq12_conjugate(fu2)
    y6 = fq12_conjugate(fq12_mul(fu3, fq12_frobenius(fu3, 1)))
    t0 = fq12_mul(fq12_mul(fq12_cyclotomic_square(y6), y4), y5)
    t1 = fq12_mul(fq12_mul(y3, y5), t0)
    t0 = fq12_mul(t0, y2)
    t1 = fq12_cyclotomic_square(fq12_mul(fq12_cyclotomic_square(t1), t0))
    t0 = fq12_mul(t1, y1)
    t1 = fq12_mul(t1, y0)
    t0 = fq12_cyclotomic_square(t0)
    return fq12_mul(t1, t0)


def pairing(p_pt: G1, q_pt: G2) -> tuple:
    """Compute the full pairing e(P, Q) as an F_q12 element."""
    if not isinstance(p_pt, G1) or not isinstance(q_pt, G2):
        raise CurveError("pairing expects (G1, G2)")
    return final_exponentiation(miller_loop(q_pt, p_pt))


def pairing_check(pairs: list, target: tuple = FQ12_ONE) -> bool:
    """Return True iff the product of pairings over ``pairs`` equals target.

    Computes prod_i e(P_i, Q_i) == target with one interleaved Miller
    loop and a single final exponentiation, the standard trick that makes
    multi-pairing verification ~k times cheaper than k separate pairings.
    Each Q_i may be a :class:`PreparedG2` to skip the G2-side loop;
    ``target`` lets callers fold precomputed GT constants (e.g. Groth16's
    e(alpha, beta)) out of the product.
    """
    return fq12_eq(final_exponentiation(multi_miller_loop(pairs)), target)
