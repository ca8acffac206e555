"""Boolean gadgets: bit decomposition, logic gates, equality, selection."""

from __future__ import annotations

from repro.errors import CircuitError
from repro.field import fr
from repro.plonk.circuit import CircuitBuilder, Wire


def num_to_bits(builder: CircuitBuilder, x: Wire, nbits: int) -> list[Wire]:
    """Decompose ``x`` into ``nbits`` boolean wires (little-endian).

    Also acts as a range check: the recomposition constraint forces
    ``x < 2**nbits`` (for nbits < 254, where no wraparound is possible).
    """
    if nbits >= 254:
        raise CircuitError("bit decomposition limited to fewer than 254 bits")
    value = builder.value(x)
    if value >> nbits:
        raise CircuitError("witness value does not fit in %d bits" % nbits)
    bits = []
    for i in range(nbits):
        bit = builder.var((value >> i) & 1)
        builder.assert_bool(bit)
        bits.append(bit)
    recomposed = builder.linear_combination([(1 << i, b) for i, b in enumerate(bits)])
    builder.assert_equal(recomposed, x)
    return bits


def bits_to_num(builder: CircuitBuilder, bits: list[Wire]) -> Wire:
    """Recompose boolean wires into a number (bits assumed constrained)."""
    return builder.linear_combination([(1 << i, b) for i, b in enumerate(bits)])


def and_gate(builder: CircuitBuilder, a: Wire, b: Wire) -> Wire:
    """Logical AND of boolean wires."""
    return builder.mul(a, b)


def or_gate(builder: CircuitBuilder, a: Wire, b: Wire) -> Wire:
    """Logical OR: a + b - a*b."""
    ab = builder.mul(a, b)
    return builder.linear_combination([(1, a), (1, b), (-1, ab)])


def not_gate(builder: CircuitBuilder, a: Wire) -> Wire:
    """Logical NOT: 1 - a."""
    return builder.linear_combination([(-1, a)], constant=1)


def xor_gate(builder: CircuitBuilder, a: Wire, b: Wire) -> Wire:
    """Logical XOR: a + b - 2ab."""
    ab = builder.mul(a, b)
    return builder.linear_combination([(1, a), (1, b), (-2, ab)])


def is_zero(builder: CircuitBuilder, x: Wire) -> Wire:
    """Return a boolean wire equal to 1 iff x == 0.

    The classic construction: witness inv = x^-1 (or 0), constrain
    out = 1 - x*inv and x*out = 0.
    """
    value = builder.value(x)
    inv_val = fr.inv(value) if value else 0
    inv = builder.var(inv_val)
    prod = builder.mul(x, inv)
    out = builder.linear_combination([(-1, prod)], constant=1)
    zero = builder.mul(x, out)
    builder.assert_zero(zero)
    return out


def is_equal(builder: CircuitBuilder, a: Wire, b: Wire) -> Wire:
    """Return a boolean wire equal to 1 iff a == b."""
    return is_zero(builder, builder.sub(a, b))


def select(builder: CircuitBuilder, cond: Wire, if_true: Wire, if_false: Wire) -> Wire:
    """Return cond ? if_true : if_false (cond must be boolean)."""
    diff = builder.sub(if_true, if_false)
    scaled = builder.mul(cond, diff)
    return builder.add(if_false, scaled)


def assert_all_distinct(builder: CircuitBuilder, wires: list[Wire]) -> None:
    """Constrain all wires to hold pairwise-distinct values.

    O(n^2) gates; used by the partition predicate's disjointness check on
    small index sets.
    """
    for i in range(len(wires)):
        for j in range(i + 1, len(wires)):
            builder.assert_not_zero(builder.sub(wires[i], wires[j]))
