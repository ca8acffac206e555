"""Algebraic gadgets: powers, sums, products, polynomial evaluation."""

from __future__ import annotations

from repro.plonk.circuit import CircuitBuilder, Wire


def pow_const(builder: CircuitBuilder, x: Wire, exponent: int) -> Wire:
    """Return a wire constrained to x**exponent (square-and-multiply)."""
    if exponent == 0:
        return builder.constant(1)
    result: Wire | None = None
    base = x
    e = exponent
    while e:
        if e & 1:
            result = base if result is None else builder.mul(result, base)
        e >>= 1
        if e:
            base = builder.mul(base, base)
    assert result is not None
    return result


def sum_wires(builder: CircuitBuilder, wires: list[Wire]) -> Wire:
    """Return a wire constrained to the sum of ``wires``."""
    return builder.linear_combination([(1, w) for w in wires])


def product(builder: CircuitBuilder, wires: list[Wire]) -> Wire:
    """Return a wire constrained to the product of ``wires``."""
    if not wires:
        return builder.constant(1)
    acc = wires[0]
    for w in wires[1:]:
        acc = builder.mul(acc, w)
    return acc


def dot(builder: CircuitBuilder, xs: list[Wire], ys: list[Wire]) -> Wire:
    """Return a wire constrained to the inner product <xs, ys>."""
    if len(xs) != len(ys):
        raise ValueError("dot product of unequal-length vectors")
    if not xs:
        return builder.constant(0)
    terms = [builder.mul(x, y) for x, y in zip(xs, ys)]
    return sum_wires(builder, terms)


def horner(builder: CircuitBuilder, coeffs: list[Wire], x: Wire) -> Wire:
    """Evaluate a polynomial with wire coefficients at wire ``x``."""
    if not coeffs:
        return builder.constant(0)
    acc = coeffs[-1]
    for c in reversed(coeffs[:-1]):
        acc = builder.mul_add(acc, x, c)
    return acc
