"""The naive any-width Poseidon permutation, kept as a differential oracle.

Until PR 19 this was ``repro.primitives.poseidon``: list-based rounds, a
dense MDS product and ``pow(s, 5, R)``, for any width.  The library now
computes the paper's t = 3 instance straight-line, with the partial rounds
in the lane coordinates the gadget uses; ``tests/test_primitives.py`` holds
its ``permute`` / ``poseidon_hash`` equal to the ones here, and the gadget
differential tests in ``tests/test_gadgets.py`` compare against this file,
so the circuit and the native code are each checked against the textbook
form, not against each other.  Everything below the imports is the
deleted module's body, unchanged.
"""

from __future__ import annotations

import hashlib

from repro.errors import FieldError
from repro.field.fr import MODULUS as R, inv

#: Full and partial round counts (the paper's recommended settings).
FULL_ROUNDS = 8
PARTIAL_ROUNDS = 60

#: S-box exponent; gcd(5, r-1) = 1 for BN254.
ALPHA = 5

if (R - 1) % ALPHA == 0:  # pragma: no cover
    raise FieldError("Poseidon alpha is not coprime to r-1")


def _round_constants(width: int, rounds: int) -> tuple:
    out = []
    for i in range(rounds * width):
        digest = hashlib.sha256(b"repro.poseidon.rc:%d:%d" % (width, i)).digest()
        out.append(int.from_bytes(digest, "little") % R)
    return tuple(out)


def _mds_matrix(width: int) -> tuple:
    """A Cauchy matrix M[i][j] = 1 / (x_i + y_j), guaranteed MDS."""
    xs = list(range(width))
    ys = list(range(width, 2 * width))
    return tuple(
        tuple(inv((x + y) % R) for y in ys) for x in xs
    )


class Poseidon:
    """The Poseidon permutation of a given width."""

    _instances: dict[int, "Poseidon"] = {}

    def __init__(self, width: int = 3):
        if width < 2:
            raise FieldError("Poseidon width must be at least 2")
        self.width = width
        self.full_rounds = FULL_ROUNDS
        self.partial_rounds = PARTIAL_ROUNDS
        total = FULL_ROUNDS + PARTIAL_ROUNDS
        self.round_constants = _round_constants(width, total)
        self.mds = _mds_matrix(width)

    @classmethod
    def get(cls, width: int = 3) -> "Poseidon":
        """Cached instance (constants derivation is not free)."""
        if width not in cls._instances:
            cls._instances[width] = cls(width)
        return cls._instances[width]

    def _mix(self, state: list[int]) -> list[int]:
        return [
            sum(self.mds[i][j] * state[j] for j in range(self.width)) % R
            for i in range(self.width)
        ]

    def permute(self, state: list[int]) -> list[int]:
        """Apply the full permutation to a state of ``width`` elements."""
        if len(state) != self.width:
            raise FieldError("state width mismatch")
        state = [s % R for s in state]
        half_full = self.full_rounds // 2
        total = self.full_rounds + self.partial_rounds
        rc = self.round_constants
        for rnd in range(total):
            offset = rnd * self.width
            state = [(s + rc[offset + i]) % R for i, s in enumerate(state)]
            if rnd < half_full or rnd >= total - half_full:
                state = [pow(s, ALPHA, R) for s in state]
            else:
                state[0] = pow(state[0], ALPHA, R)
            state = self._mix(state)
        return state

    def hash(self, inputs: list[int]) -> int:
        """Sponge hash of arbitrarily many field elements (rate width-1).

        The capacity element is initialised with a length tag so that
        inputs of different lengths never collide by padding.
        """
        rate = self.width - 1
        state = [len(inputs) % R] + [0] * rate
        for i in range(0, max(len(inputs), 1), rate):
            chunk = inputs[i : i + rate]
            for j, value in enumerate(chunk):
                state[1 + j] = (state[1 + j] + value) % R
            state = self.permute(state)
        return state[0]


def poseidon_hash(inputs: list[int], width: int = 3) -> int:
    """Hash field elements with the cached width-``width`` Poseidon."""
    return Poseidon.get(width).hash([i % R for i in inputs])
