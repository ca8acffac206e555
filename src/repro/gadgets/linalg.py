"""Vector / matrix gadgets over fixed-point values.

The "mathematical primitives: algebraic and matrix operation" entries of
the paper's gadget library (Section IV-D), used by the model-training
applications: dot products, matrix-vector products, ReLU layers and an
exp-normalised softmax approximation.
"""

from __future__ import annotations

from repro.errors import CircuitError
from repro.field.fr import MODULUS as R
from repro.gadgets.fixedpoint import (
    FixedPointSpec,
    exp_coefficients,
    fp_mul,
    fp_poly,
)
from repro.plonk.circuit import CircuitBuilder, Wire


def fp_dot(
    builder: CircuitBuilder, xs: list[Wire], ys: list[Wire], spec: FixedPointSpec
) -> Wire:
    """Fixed-point inner product: sum of truncated pairwise products."""
    if len(xs) != len(ys):
        raise CircuitError("dot product of unequal-length vectors")
    if not xs:
        return builder.constant(0)
    terms = [fp_mul(builder, x, y, spec) for x, y in zip(xs, ys)]
    return builder.linear_combination([(1, t) for t in terms])


def fp_matvec(
    builder: CircuitBuilder,
    matrix: list[list[Wire]],
    vector: list[Wire],
    spec: FixedPointSpec,
) -> list[Wire]:
    """Fixed-point matrix-vector product (row-major matrix of wires)."""
    return [fp_dot(builder, row, vector, spec) for row in matrix]


def fp_vec_add(builder: CircuitBuilder, xs: list[Wire], ys: list[Wire]) -> list[Wire]:
    """Elementwise vector addition (exact in the field)."""
    if len(xs) != len(ys):
        raise CircuitError("vector addition of unequal lengths")
    return [builder.add(x, y) for x, y in zip(xs, ys)]


def fp_softmax(
    builder: CircuitBuilder, xs: list[Wire], spec: FixedPointSpec
) -> list[Wire]:
    """Softmax via the polynomial exp approximation plus a witnessed
    normaliser.

    Each e_i = exp_poly(x_i); the inverse of their sum is supplied as a
    witness and verified with one multiplication constraint (s * inv = 1),
    sidestepping in-circuit division — the standard zk-ML trick.
    """
    coeffs = exp_coefficients(spec)
    exps = [fp_poly(builder, coeffs, x, spec) for x in xs]
    total = builder.linear_combination([(1, e) for e in exps])
    total_val = builder.value(total)
    # inv is the *fixed point* reciprocal: inv ~ 2^(2F) / total.
    signed = total_val - R if total_val > R // 2 else total_val
    if signed <= 0:
        raise CircuitError("softmax normaliser must be positive")
    inv_scaled = (spec.scale * spec.scale) // signed
    inv = builder.var(inv_scaled % R)
    # Verify total * inv ~ 1 in fixed point, within one truncation ulp.
    check = fp_mul(builder, total, inv, spec)
    one = spec.encode(1.0)
    # |check - 1| <= 2 ulp: enforced by decomposing the small difference.
    diff = builder.add_const(check, -one + 2)
    from repro.gadgets.boolean import num_to_bits

    num_to_bits(builder, diff, 3)  # diff in [0, 8) covers the +-2 ulp window
    return [fp_mul(builder, e, inv, spec) for e in exps]


def matvec_native(
    matrix: list[list[int]], vector: list[int], spec: FixedPointSpec
) -> list[int]:
    """Native mirror of :func:`fp_matvec` (same truncation per product)."""
    out = []
    for row in matrix:
        acc = 0
        for m, v in zip(row, vector):
            acc = (acc + spec.mul_native(m, v)) % R
        out.append(acc)
    return out
