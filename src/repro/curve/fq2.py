"""F_q2 operations the tower pairing needs beyond plain arithmetic.

``repro.curve.fq`` owns the tuple-based F_q2 representation (``(a0, a1)``
meaning ``a0 + a1*u`` with ``u^2 = -1``); this module re-exports it and
adds the structure the F_q2/F_q6/F_q12 tower is built on:

- the sextic non-residue ``xi = 9 + u`` (the twist divisor, the F_q6
  cubic non-residue and the F_q12 sextic non-residue all at once);
- Frobenius (which on F_q2 is plain conjugation, ``u -> -u``);
- cheap multiplication by ``xi`` (4 additions + 2 scalar muls instead of
  a general F_q2 product).

The G2 side of the pairing's Miller loop, the Frobenius maps and the
tower inversion run on these primitives; see ``docs/pairing.md`` for how
they assemble.
"""

from __future__ import annotations

from repro.curve.fq import (
    FQ2_ONE,
    FQ2_ZERO,
    Fq2,
    Q,
    fq2_add,
    fq2_batch_inverse,
    fq2_eq,
    fq2_inv,
    fq2_is_zero,
    fq2_mul,
    fq2_neg,
    fq2_pow,
    fq2_scalar,
    fq2_square,
    fq2_sub,
)

#: The sextic non-residue xi = 9 + u: F_q6 = F_q2[v]/(v^3 - xi) and
#: F_q12 = F_q6[w]/(w^2 - v), equivalently w^6 = xi.
XI: Fq2 = (9, 1)


def fq2_conjugate(a: Fq2) -> Fq2:
    """The non-trivial F_q-automorphism ``a0 + a1*u -> a0 - a1*u``."""
    return (a[0], -a[1] % Q)


def fq2_mul_by_nonresidue(a: Fq2) -> Fq2:
    """``a * xi`` for ``xi = 9 + u``, expanded to avoid a full product:

    ``(a0 + a1 u)(9 + u) = (9 a0 - a1) + (a0 + 9 a1) u``.
    """
    a0, a1 = a
    return ((9 * a0 - a1) % Q, (a0 + 9 * a1) % Q)


__all__ = [
    "FQ2_ONE",
    "FQ2_ZERO",
    "Fq2",
    "Q",
    "XI",
    "fq2_add",
    "fq2_batch_inverse",
    "fq2_conjugate",
    "fq2_eq",
    "fq2_inv",
    "fq2_is_zero",
    "fq2_mul",
    "fq2_mul_by_nonresidue",
    "fq2_neg",
    "fq2_pow",
    "fq2_scalar",
    "fq2_square",
    "fq2_sub",
]
