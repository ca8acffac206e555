"""The Poseidon gadget's layout before the partial-round gate, kept as an oracle.

Until the partial-round gate (:meth:`repro.plonk.circuit.CircuitBuilder.
poseidon_partial_round`) this was ``repro.gadgets.poseidon``: S-boxes as
two cubic gates with the round constant folded into qM/qL/qR/qC, partial
rounds in the lane coordinates of ``repro.primitives.poseidon``'s tables,
six rows a round, a one-input hash in 451 rows and pi_k at n = 512.
``tests/test_round_gate.py`` builds pi_k on it to pin that a layout
without the gates that read the next row keeps its layout digest, key
digest and proof bytes.  Everything below the docstring is the deleted
module's body, unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.field.fr import MODULUS as R
from repro.plonk.circuit import CircuitBuilder, Wire
from repro.primitives.poseidon import (
    ALPHA,
    FULL_ROUNDS,
    LANES_BACK,
    MDS,
    PARTIAL_ROUNDS,
    PARTIAL_ROWS,
    ROUND_CONSTANTS,
    WIDTH,
    permute,
)

assert ALPHA == 5, "S-box gates are unrolled for x^5"


@dataclass(frozen=True)
class _Known:
    """A lane whose value is fixed at build time, not a wire."""

    value: int


def _sbox(builder: CircuitBuilder, s: Wire, c: int) -> Wire:
    """Return a wire constrained to (s + c)^5: two cubic gates."""
    c2 = c * c % R
    v = (builder.value(s) + c) % R
    v2 = v * v % R
    # (s+c)^3 = s^3 + 3c s^2 + 3c^2 s + c^3
    x3 = builder.var(v2 * v)
    builder.gate(a=s, b=s, c=x3, q3=1, qm=3 * c, ql=3 * c2, qc=c2 * c, qo=-1)
    # (s+c)^2 * x3 = s^2 x3 + 2c s x3 + c^2 x3
    x5 = builder.var(v2 * builder.value(x3))
    builder.gate(a=s, b=x3, c=x5, q3=1, qm=2 * c, qr=c2, qo=-1)
    return x5


def _combine(builder: CircuitBuilder, terms, constant: int = 0):
    """sum(k * lane) + constant; known lanes fold into the constant."""
    live = []
    for k, lane in terms:
        if isinstance(lane, _Known):
            constant += k * lane.value
        else:
            live.append((k, lane))
    if not live:
        return _Known(constant % R)
    return builder.linear_combination(live, constant)


def _full_round(builder: CircuitBuilder, rnd: int, lanes: list) -> list:
    rc = ROUND_CONSTANTS[rnd * WIDTH : (rnd + 1) * WIDTH]
    boxed = [
        _Known(pow(lane.value + c, ALPHA, R))
        if isinstance(lane, _Known)
        else _sbox(builder, lane, c)
        for lane, c in zip(lanes, rc)
    ]
    return [_combine(builder, zip(row, boxed)) for row in MDS]


def _partial_rounds(builder: CircuitBuilder, lanes: list[Wire]) -> list[Wire]:
    """All partial rounds: per round 2 S-box gates, 2 for the next S-box
    input, 1 per lane; plus 2 at the end to leave lane coordinates."""
    m00 = MDS[0][0]
    s0, sig1, sig2 = lanes
    for c0, read, read_const, inject, lane_const in PARTIAL_ROWS:
        y = _sbox(builder, s0, c0)
        s0 = builder.linear_combination(
            [(read[0], sig1), (read[1], sig2), (m00, y)], read_const
        )
        sig1 = builder.linear_combination([(1, sig1), (inject[0], y)], lane_const[0])
        sig2 = builder.linear_combination([(1, sig2), (inject[1], y)], lane_const[1])
    return [s0] + [
        builder.linear_combination([(row[0], sig1), (row[1], sig2)]) for row in LANES_BACK
    ]


def _permute(builder: CircuitBuilder, lanes: list) -> list:
    """The permutation over lanes that are wires or :class:`_Known`."""
    if all(isinstance(lane, _Known) for lane in lanes):
        return [_Known(v) for v in permute([lane.value for lane in lanes])]
    half_full = FULL_ROUNDS // 2
    for rnd in range(half_full):
        lanes = _full_round(builder, rnd, lanes)
    # One live lane makes every lane live after a round: no MDS entry is 0.
    lanes = _partial_rounds(builder, lanes)
    for rnd in range(half_full + PARTIAL_ROUNDS, FULL_ROUNDS + PARTIAL_ROUNDS):
        lanes = _full_round(builder, rnd, lanes)
    return lanes


def poseidon_permutation(builder: CircuitBuilder, state: list[Wire]) -> list[Wire]:
    """Constrain and return the Poseidon permutation of ``state``."""
    if len(state) != WIDTH:
        raise ValueError("state width mismatch")
    return _permute(builder, state)


def poseidon_hash_gadget(builder: CircuitBuilder, inputs: list[Wire]) -> Wire:
    """Constrain and return the sponge hash of ``inputs`` (matches
    :func:`repro.primitives.poseidon.poseidon_hash`)."""
    rate = WIDTH - 1
    state: list = [_Known(len(inputs))] + [_Known(0)] * rate
    for i in range(0, max(len(inputs), 1), rate):
        for j, wire in enumerate(inputs[i : i + rate], start=1):
            # A rate lane is known only while it is the initial zero:
            # absorbing into it is the input wire itself.
            known = isinstance(state[j], _Known)
            state[j] = wire if known else builder.add(state[j], wire)
        state = _permute(builder, state)
    digest = state[0]
    return builder.constant(digest.value) if isinstance(digest, _Known) else digest

