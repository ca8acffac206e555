"""In-circuit Poseidon permutation and sponge hash.

Used for the buyer's statement h_v = H(k_v) in pi_k, ZKCP's key hash,
Merkle nodes and signature challenges.  Commitments to keys and data are
KZG points a circuit links (:meth:`repro.plonk.circuit.CircuitBuilder.link`),
not hashes it re-opens.

Same function as :mod:`repro.primitives.poseidon`, whose constants and MDS
matrix are imported here, laid out as:

- a full round: per lane an S-box x^5 in two cubic gates ``q3*a*a*b``
  (x^3 = x*x*x, then x^5 = x*x*x^3), then one 3-term mixing row per lane,
  which adds the next round's constants, so S-box inputs arrive with
  their constant already added and no S-box row needs ``qM``;
- a partial round: the two rows of
  :meth:`~repro.plonk.circuit.CircuitBuilder.poseidon_partial_round`,
  whose gate reads the next row's three wires.  By Poseidon's constant
  equivalence (the Poseidon paper, Appendix B) a partial round keeps one
  constant, on lane 0: the other two pass its S-box unchanged, so M moves
  them forward into the next round's constants, and out of the last
  partial round into the first closing full round's
  (:func:`_partial_constants`);
- lanes whose value is fixed at build time (the length tag, zero padding)
  never become wires.

One permutation of three live wires is 221 gates; a one- or two-input hash
is 212 / 215.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.field.fr import MODULUS as R
from repro.plonk.circuit import CircuitBuilder, Wire
from repro.primitives.poseidon import (
    ALPHA,
    FULL_ROUNDS,
    MDS,
    PARTIAL_ROUNDS,
    ROUND_CONSTANTS,
    WIDTH,
    permute,
)

assert ALPHA == 5, "S-box gates are unrolled for x^5"


@dataclass(frozen=True)
class _Known:
    """A lane whose value is fixed at build time, not a wire."""

    value: int


def _round_constants(rnd: int) -> tuple:
    return ROUND_CONSTANTS[rnd * WIDTH : (rnd + 1) * WIDTH]


def _partial_constants() -> tuple[tuple, tuple]:
    """Poseidon's constant equivalence over the partial rounds.

    Round p adds c_p to every lane, but lanes 1 and 2 pass its S-box
    unchanged, so their share moves through M: with carry_0 = 0, total_p =
    c_p + carry_p keeps its lane 0 and carry_(p+1) = M (0, total_p[1],
    total_p[2]).  Returns the 60 lane-0 constants and the first closing
    full round's constants, which take the last carry.
    """
    first = FULL_ROUNDS // 2
    carry = (0, 0, 0)
    lane0 = []
    for rnd in range(first, first + PARTIAL_ROUNDS):
        total = [(c + k) % R for c, k in zip(_round_constants(rnd), carry)]
        lane0.append(total[0])
        carry = tuple((row[1] * total[1] + row[2] * total[2]) % R for row in MDS)
    closing = tuple(
        (c + k) % R for c, k in zip(_round_constants(first + PARTIAL_ROUNDS), carry)
    )
    return tuple(lane0), closing


#: Every circuit build reads them.
PARTIAL_CONSTANTS, CLOSING_CONSTANTS = _partial_constants()


def _sbox(builder: CircuitBuilder, x: Wire) -> Wire:
    """Return a wire constrained to x^5: two cubic gates, x in the a slot."""
    return builder.square_mul(x, builder.square_mul(x, x))


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


def _full_round(builder: CircuitBuilder, lanes: list, added: tuple, constants: tuple) -> list:
    """One full round; returns M (lanes^5) + ``constants``, the next
    round's.  ``added[j]`` is lane j's round constant when the lane does
    not carry it yet (an add-constant gate goes first), None when it does.
    Lane 0 goes first: a partial round's last row writes it into the next
    gate's a."""
    boxed = []
    for lane, k in zip(lanes, added):
        if isinstance(lane, _Known):
            boxed.append(_Known(pow(lane.value + (k or 0), ALPHA, R)))
            continue
        if k is not None:
            lane = builder.add_const(lane, k)
        boxed.append(_sbox(builder, lane))
    return [_combine(builder, zip(row, boxed), k) for row, k in zip(MDS, constants)]


def _permute(builder: CircuitBuilder, lanes: list) -> list:
    """The permutation over lanes that are wires or :class:`_Known`."""
    if all(isinstance(lane, _Known) for lane in lanes):
        return [_Known(v) for v in permute([lane.value for lane in lanes])]
    half_full = FULL_ROUNDS // 2
    added = _round_constants(0)
    for rnd in range(half_full):
        nxt = (
            _round_constants(rnd + 1)
            if rnd + 1 < half_full
            else (PARTIAL_CONSTANTS[0], 0, 0)  # lanes 1 and 2 enter raw
        )
        lanes = _full_round(builder, lanes, added, nxt)
        added = (None, None, None)
    # One live lane makes every lane live after a round: no MDS entry is 0.
    x, s1, s2 = lanes
    for k in PARTIAL_CONSTANTS[1:] + (CLOSING_CONSTANTS[0],):
        x, s1, s2 = builder.poseidon_partial_round(x, s1, s2, k)
    lanes, added = [x, s1, s2], (None,) + CLOSING_CONSTANTS[1:]
    first_closing = half_full + PARTIAL_ROUNDS
    for rnd in range(first_closing, FULL_ROUNDS + PARTIAL_ROUNDS):
        last = rnd + 1 == FULL_ROUNDS + PARTIAL_ROUNDS
        lanes = _full_round(builder, lanes, added, (0, 0, 0) if last else _round_constants(rnd + 1))
        added = (None, None, None)
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
