"""In-circuit gadget library (the paper's Challenge 1).

"It is impossible to enumerate all potential operations for practical
scenarios.  Nevertheless, we implement a library of fundamental
cryptographic and mathematical gadgets to construct predicates for
complicated relations."  (Section III-D)

Every gadget takes a :class:`~repro.plonk.circuit.CircuitBuilder` and wire
handles, emits constraints, and returns result wires.  Each cryptographic
gadget mirrors a native primitive in ``repro.primitives``; the test suite
enforces bit-for-bit equivalence between the two.
"""

from repro.gadgets import (
    arithmetic,
    boolean,
    comparison,
    fixedpoint,
    linalg,
    merkle,
    mimc,
    poseidon,
)

__all__ = [
    "arithmetic",
    "boolean",
    "comparison",
    "fixedpoint",
    "linalg",
    "merkle",
    "mimc",
    "poseidon",
]
