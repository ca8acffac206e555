"""The Poseidon permutation and sponge hash.

Instantiated as in the paper (Section VI-A): x^5-Poseidon-128 with
R_F = 8 full rounds and R_P = 60 partial rounds over the BN254 scalar
field, width t = 3 (rate 2, capacity 1) — the only instance the protocols
and the gadgets use.  The substitution-permutation structure — S-box x^5,
MDS mixing — is what gives Poseidon its ~8x constraint advantage over
Pedersen commitments in circuits.

Round constants and the (Cauchy) MDS matrix are derived deterministically
so prover and verifier always agree.

The permutation is written out for three lanes held in locals, and runs
the 60 partial rounds in the lane coordinates of
:func:`_partial_round_tables`, so a partial round is one S-box and five
multiplications instead of a dense 3x3 product.  The gadget
(:mod:`repro.gadgets.poseidon`) keeps the standard coordinates and moves
the round constants instead: its state rides the next row's wires.
``tests/poseidon_oracle.py`` keeps the textbook any-width form; the tests
hold the two equal.  Nothing here remembers a hashed value: preimages are
secrets.
"""

from __future__ import annotations

import hashlib

from repro.errors import FieldError
from repro.field.fr import MODULUS as R, inv

#: State width: rate 2, capacity 1.
WIDTH = 3

#: Full and partial round counts (the paper's recommended settings).
FULL_ROUNDS = 8
PARTIAL_ROUNDS = 60

#: S-box exponent; gcd(5, r-1) = 1 for BN254.
ALPHA = 5

if (R - 1) % ALPHA == 0:  # pragma: no cover
    raise FieldError("Poseidon alpha is not coprime to r-1")


def _round_constants() -> tuple:
    out = []
    for i in range((FULL_ROUNDS + PARTIAL_ROUNDS) * WIDTH):
        digest = hashlib.sha256(b"repro.poseidon.rc:%d:%d" % (WIDTH, i)).digest()
        out.append(int.from_bytes(digest, "little") % R)
    return tuple(out)


def _mds_matrix() -> tuple:
    """A Cauchy matrix M[i][j] = 1 / (x_i + y_j), guaranteed MDS."""
    xs = list(range(WIDTH))
    ys = list(range(WIDTH, 2 * WIDTH))
    return tuple(
        tuple(inv((x + y) % R) for y in ys) for x in xs
    )


#: ``WIDTH`` constants a round, in round order.
ROUND_CONSTANTS = _round_constants()
MDS = _mds_matrix()


def _mat_vec(m, v) -> tuple:
    return tuple((row[0] * v[0] + row[1] * v[1]) % R for row in m)


def _mat_mul(m, k) -> tuple:
    return tuple(
        tuple((row[0] * k[0][j] + row[1] * k[1][j]) % R for j in range(2)) for row in m
    )


def _partial_round_tables() -> tuple:
    """Coefficients of the partial rounds in lane coordinates.

    Write the MDS matrix as ``[[m00, m0^T], [b, A]]``.  A partial round maps
    ``(s0, l)`` to ``y = (s0 + c0)^5``, ``s0' = m00*y + m0.(l + cl)``,
    ``l' = b*y + A(l + cl)``.  With ``sigma_p = A^-p l_p`` that is

        s0'    = m00*y + ((A^T)^p m0).sigma + m0.cl
        sigma' = sigma + (A^-(p+1) b)*y + A^-p cl

    — ``A`` is invertible because every square block of an MDS matrix is.
    Returns one ``(c0, read, read_const, inject, lane_const)`` row per
    partial round and ``A^60``, which maps the lanes back.
    """
    rc, mds = ROUND_CONSTANTS, MDS
    m0 = mds[0][1:]
    b = (mds[1][0], mds[2][0])
    a = (mds[1][1:], mds[2][1:])
    det_inv = inv((a[0][0] * a[1][1] - a[0][1] * a[1][0]) % R)
    a_inv = (
        (a[1][1] * det_inv % R, -a[0][1] * det_inv % R),
        (-a[1][0] * det_inv % R, a[0][0] * det_inv % R),
    )
    a_t = ((a[0][0], a[1][0]), (a[0][1], a[1][1]))
    fwd = bwd = ((1, 0), (0, 1))  # A^p, A^-p
    read = m0  # (A^T)^p m0
    rows = []
    first = FULL_ROUNDS // 2
    for rnd in range(first, first + PARTIAL_ROUNDS):
        c0, *cl = rc[rnd * WIDTH : (rnd + 1) * WIDTH]
        lane_const = _mat_vec(bwd, cl)
        bwd = _mat_mul(bwd, a_inv)
        rows.append(
            (c0, read, (m0[0] * cl[0] + m0[1] * cl[1]) % R, _mat_vec(bwd, b), lane_const)
        )
        read = _mat_vec(a_t, read)
        fwd = _mat_mul(fwd, a)
    return tuple(rows), fwd


#: The partial rounds as :func:`_partial_round_tables` derives them, once:
#: every hash reads them.
PARTIAL_ROWS, LANES_BACK = _partial_round_tables()


_ROUNDS = tuple(
    ROUND_CONSTANTS[i : i + WIDTH] for i in range(0, len(ROUND_CONSTANTS), WIDTH)
)
_OPENING_ROUNDS = _ROUNDS[: FULL_ROUNDS // 2]
_CLOSING_ROUNDS = _ROUNDS[FULL_ROUNDS // 2 + PARTIAL_ROUNDS :]


def _full_rounds(rounds: tuple, s0: int, s1: int, s2: int) -> tuple:
    (m00, m01, m02), (m10, m11, m12), (m20, m21, m22) = MDS
    for c0, c1, c2 in rounds:
        s0 += c0
        s1 += c1
        s2 += c2
        t = s0 * s0 % R
        s0 = t * t % R * s0 % R
        t = s1 * s1 % R
        s1 = t * t % R * s1 % R
        t = s2 * s2 % R
        s2 = t * t % R * s2 % R
        s0, s1, s2 = (
            (m00 * s0 + m01 * s1 + m02 * s2) % R,
            (m10 * s0 + m11 * s1 + m12 * s2) % R,
            (m20 * s0 + m21 * s1 + m22 * s2) % R,
        )
    return s0, s1, s2


def _permute(s0: int, s1: int, s2: int) -> tuple:
    """The permutation of three reduced lanes."""
    s0, s1, s2 = _full_rounds(_OPENING_ROUNDS, s0, s1, s2)
    # sigma_0 = l_0.  The two idle lanes only ever feed a product that is
    # reduced, so they stay unreduced until they are mapped back: sums of
    # 508-bit products, ~512 bits after the last round.
    m00 = MDS[0][0]
    for c0, (r1, r2), read_const, (i1, i2), (k1, k2) in PARTIAL_ROWS:
        y = s0 + c0
        t = y * y % R
        y = t * t % R * y % R
        s0 = (m00 * y + r1 * s1 + r2 * s2 + read_const) % R
        s1 += i1 * y + k1
        s2 += i2 * y + k2
    (b00, b01), (b10, b11) = LANES_BACK
    s1, s2 = (b00 * s1 + b01 * s2) % R, (b10 * s1 + b11 * s2) % R
    return _full_rounds(_CLOSING_ROUNDS, s0, s1, s2)


def permute(state: list[int]) -> list[int]:
    """Apply the permutation to a state of ``WIDTH`` elements."""
    if len(state) != WIDTH:
        raise FieldError("state width mismatch")
    s0, s1, s2 = state
    return list(_permute(s0 % R, s1 % R, s2 % R))


def poseidon_hash(inputs: list[int]) -> int:
    """Sponge hash of arbitrarily many field elements (rate 2).

    The capacity element is initialised with a length tag so that
    inputs of different lengths never collide by padding.
    """
    count = len(inputs)
    s0, s1, s2 = count % R, 0, 0
    for i in range(0, max(count, 1), 2):
        if i < count:
            s1 = (s1 + inputs[i]) % R
        if i + 1 < count:
            s2 = (s2 + inputs[i + 1]) % R
        s0, s1, s2 = _permute(s0, s1, s2)
    return s0
