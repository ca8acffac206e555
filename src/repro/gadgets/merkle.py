"""Merkle trees over Poseidon, native and in-circuit.

Listed among the paper's cryptographic gadgets (Section IV-D: "Merkle
proof") and used to authenticate dataset rows against a root committed in
NFT metadata.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ReproError
from repro.field.fr import MODULUS as R
from repro.gadgets.boolean import select
from repro.gadgets.poseidon import poseidon_permutation
from repro.plonk.circuit import CircuitBuilder, Wire
from repro.primitives.poseidon import permute


def _hash2(left: int, right: int) -> int:
    """Fixed-arity 2-to-1 compression: one Poseidon permutation."""
    return permute([0, left, right])[0]


def _hash2_gadget(builder: CircuitBuilder, left: Wire, right: Wire) -> Wire:
    state = [builder.constant(0), left, right]
    return poseidon_permutation(builder, state)[0]


@dataclass(frozen=True)
class MerkleProof:
    """An authentication path: sibling hashes plus direction bits."""

    leaf_index: int
    siblings: tuple
    # path_bits[i] == 1 means the current node is the RIGHT child at level i.
    path_bits: tuple


class MerkleTree:
    """A fixed-depth Poseidon Merkle tree (native side)."""

    def __init__(self, leaves: list[int], depth: int | None = None):
        if not leaves:
            raise ReproError("Merkle tree needs at least one leaf")
        if depth is None:
            depth = max(1, (len(leaves) - 1).bit_length())
        if len(leaves) > (1 << depth):
            raise ReproError("too many leaves for depth %d" % depth)
        self.depth = depth
        padded = [v % R for v in leaves] + [0] * ((1 << depth) - len(leaves))
        self.levels = [padded]
        current = padded
        for _ in range(depth):
            current = [
                _hash2(current[i], current[i + 1]) for i in range(0, len(current), 2)
            ]
            self.levels.append(current)

    @property
    def root(self) -> int:
        return self.levels[-1][0]

    def prove(self, index: int) -> MerkleProof:
        """Authentication path for the leaf at ``index``."""
        if not 0 <= index < len(self.levels[0]):
            raise ReproError("leaf index out of range")
        siblings = []
        bits = []
        idx = index
        for level in range(self.depth):
            sibling_idx = idx ^ 1
            siblings.append(self.levels[level][sibling_idx])
            bits.append(idx & 1)
            idx >>= 1
        return MerkleProof(index, tuple(siblings), tuple(bits))

    @staticmethod
    def verify(root: int, leaf: int, proof: MerkleProof) -> bool:
        """Native path verification."""
        node = leaf % R
        for sibling, bit in zip(proof.siblings, proof.path_bits):
            if bit:
                node = _hash2(sibling, node)
            else:
                node = _hash2(node, sibling)
        return node == root


def merkle_path_gadget(
    builder: CircuitBuilder,
    leaf: Wire,
    siblings: list[Wire],
    path_bits: list[Wire],
) -> Wire:
    """Constrain and return the root computed from ``leaf`` and its path.

    ``path_bits`` wires must be boolean-constrained by the caller (or be
    produced by :func:`repro.gadgets.boolean.num_to_bits`).
    """
    if len(siblings) != len(path_bits):
        raise ReproError("siblings and path bits must align")
    node = leaf
    for sibling, bit in zip(siblings, path_bits):
        left = select(builder, bit, sibling, node)
        right = select(builder, bit, node, sibling)
        node = _hash2_gadget(builder, left, right)
    return node


def assert_merkle_membership(
    builder: CircuitBuilder,
    root: Wire,
    leaf: Wire,
    proof: MerkleProof,
) -> None:
    """Constrain that ``leaf`` lies under ``root`` along ``proof``'s path."""
    siblings = [builder.var(s) for s in proof.siblings]
    bits = []
    for b in proof.path_bits:
        w = builder.var(b)
        builder.assert_bool(w)
        bits.append(w)
    computed = merkle_path_gadget(builder, leaf, siblings, bits)
    builder.assert_equal(computed, root)
