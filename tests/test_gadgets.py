"""Gadget tests: constraint satisfaction + native/circuit equivalence.

These tests validate circuits by direct constraint evaluation
(``layout.check``), which runs at field speed; full prove/verify round
trips over gadget circuits live in test_plonk_gadget_integration.py.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import CircuitError, ReproError, UnsatisfiedConstraintError
from repro.field.fr import MODULUS as R
from repro.gadgets import arithmetic, boolean, comparison
from repro.gadgets.fixedpoint import (
    FixedPointSpec,
    fp_abs,
    fp_assert_le,
    fp_is_negative,
    fp_mul,
    fp_poly,
    fp_relu,
    fp_truncate,
    log_coefficients,
    sigmoid_coefficients,
)
from repro.gadgets.linalg import fp_matvec, fp_softmax, fp_vec_add, matvec_native
from repro.gadgets.merkle import MerkleTree, assert_merkle_membership
from repro.gadgets.mimc import assert_ctr_encryption, mimc_block
from repro.gadgets.poseidon import poseidon_hash_gadget, poseidon_permutation
from repro.plonk.circuit import CircuitBuilder
from repro.primitives import MiMC, mimc_encrypt_ctr
from tests.poseidon_oracle import Poseidon, poseidon_hash


def compile_ok(builder):
    layout, assignment = builder.compile()
    layout.check(assignment)
    return layout, assignment


class TestArithmetic:
    @pytest.mark.parametrize("exp", [0, 1, 2, 3, 7, 10, 31])
    def test_pow_const(self, exp):
        b = CircuitBuilder()
        x = b.var(3)
        out = arithmetic.pow_const(b, x, exp)
        assert b.value(out) == pow(3, exp, R)
        compile_ok(b)

    def test_sum_product_dot(self):
        b = CircuitBuilder()
        xs = [b.var(v) for v in (2, 3, 4)]
        ys = [b.var(v) for v in (5, 6, 7)]
        assert b.value(arithmetic.sum_wires(b, xs)) == 9
        assert b.value(arithmetic.product(b, xs)) == 24
        assert b.value(arithmetic.dot(b, xs, ys)) == 2 * 5 + 3 * 6 + 4 * 7
        assert b.value(arithmetic.product(b, [])) == 1
        assert b.value(arithmetic.dot(b, [], [])) == 0
        compile_ok(b)

    def test_dot_length_mismatch(self):
        b = CircuitBuilder()
        with pytest.raises(ValueError):
            arithmetic.dot(b, [b.var(1)], [])

    def test_horner(self):
        b = CircuitBuilder()
        coeffs = [b.var(v) for v in (1, 2, 3)]  # 1 + 2x + 3x^2
        x = b.var(5)
        out = arithmetic.horner(b, coeffs, x)
        assert b.value(out) == 1 + 10 + 75
        compile_ok(b)


class TestBoolean:
    def test_num_to_bits_roundtrip(self):
        b = CircuitBuilder()
        x = b.var(0b101101)
        bits = boolean.num_to_bits(b, x, 8)
        assert [b.value(w) for w in bits] == [1, 0, 1, 1, 0, 1, 0, 0]
        back = boolean.bits_to_num(b, bits)
        assert b.value(back) == 0b101101
        compile_ok(b)

    def test_num_to_bits_overflow_rejected(self):
        b = CircuitBuilder()
        x = b.var(300)
        with pytest.raises(CircuitError):
            boolean.num_to_bits(b, x, 8)

    @pytest.mark.parametrize(
        "op,table",
        [
            (boolean.and_gate, {(0, 0): 0, (0, 1): 0, (1, 0): 0, (1, 1): 1}),
            (boolean.or_gate, {(0, 0): 0, (0, 1): 1, (1, 0): 1, (1, 1): 1}),
            (boolean.xor_gate, {(0, 0): 0, (0, 1): 1, (1, 0): 1, (1, 1): 0}),
        ],
    )
    def test_logic_gates(self, op, table):
        b = CircuitBuilder()
        for (x, y), expected in table.items():
            assert b.value(op(b, b.var(x), b.var(y))) == expected
        compile_ok(b)

    def test_not_and_is_zero(self):
        b = CircuitBuilder()
        assert b.value(boolean.not_gate(b, b.var(1))) == 0
        assert b.value(boolean.is_zero(b, b.var(0))) == 1
        assert b.value(boolean.is_zero(b, b.var(17))) == 0
        assert b.value(boolean.is_equal(b, b.var(4), b.var(4))) == 1
        assert b.value(boolean.is_equal(b, b.var(4), b.var(5))) == 0
        compile_ok(b)

    def test_select(self):
        b = CircuitBuilder()
        t, f = b.var(10), b.var(20)
        assert b.value(boolean.select(b, b.var(1), t, f)) == 10
        assert b.value(boolean.select(b, b.var(0), t, f)) == 20
        compile_ok(b)

    def test_assert_all_distinct(self):
        b = CircuitBuilder()
        boolean.assert_all_distinct(b, [b.var(v) for v in (1, 2, 3)])
        compile_ok(b)

    def test_assert_all_distinct_fails_on_duplicate(self):
        b = CircuitBuilder()
        # assert_not_zero on zero makes the witness itself inconsistent.
        with pytest.raises(UnsatisfiedConstraintError):
            boolean.assert_all_distinct(b, [b.var(1), b.var(1)])
            b.compile()


class TestComparison:
    @pytest.mark.parametrize("a,b_,expected", [(3, 5, 1), (5, 3, 0), (4, 4, 0), (0, 1, 1)])
    def test_less_than(self, a, b_, expected):
        builder = CircuitBuilder()
        out = comparison.less_than(builder, builder.var(a), builder.var(b_), 8)
        assert builder.value(out) == expected
        compile_ok(builder)

    def test_less_or_equal(self):
        builder = CircuitBuilder()
        assert builder.value(
            comparison.less_or_equal(builder, builder.var(4), builder.var(4), 8)
        ) == 1
        compile_ok(builder)

    def test_assert_less_than(self):
        builder = CircuitBuilder()
        comparison.assert_less_than(builder, builder.var(2), builder.var(9), 8)
        compile_ok(builder)

    def test_abs_diff(self):
        builder = CircuitBuilder()
        assert builder.value(
            comparison.abs_diff(builder, builder.var(3), builder.var(10), 8)
        ) == 7
        assert builder.value(
            comparison.abs_diff(builder, builder.var(10), builder.var(3), 8)
        ) == 7
        compile_ok(builder)

    @given(st.integers(0, 255), st.integers(0, 255))
    @settings(max_examples=20, deadline=None)
    def test_less_than_property(self, a, b_):
        builder = CircuitBuilder()
        out = comparison.less_than(builder, builder.var(a), builder.var(b_), 8)
        assert builder.value(out) == (1 if a < b_ else 0)
        compile_ok(builder)


class TestMiMCGadget:
    def test_block_matches_native(self):
        b = CircuitBuilder()
        key, block = 111, 222
        out = mimc_block(b, b.var(key), b.var(block), rounds=8)
        assert b.value(out) == MiMC(rounds=8).encrypt_block(key, block)
        compile_ok(b)

    def test_block_matches_native_full_rounds(self):
        b = CircuitBuilder()
        out = mimc_block(b, b.var(5), b.var(6))
        assert b.value(out) == MiMC().encrypt_block(5, 6)
        compile_ok(b)

    def test_ctr_encryption_constraint(self):
        key, nonce = 99, 1000
        plaintext = [10, 20, 30]
        ct = mimc_encrypt_ctr(key, plaintext, nonce)
        b = CircuitBuilder()
        k = b.var(key)
        pts = [b.var(p) for p in plaintext]
        nw = b.var(nonce)
        cts = [b.public_input(c) for c in ct.blocks]
        assert_ctr_encryption(b, k, pts, nw, cts)
        compile_ok(b)

    def test_ctr_encryption_wrong_ciphertext_fails(self):
        key, nonce = 99, 1000
        ct = mimc_encrypt_ctr(key, [10], nonce)
        b = CircuitBuilder()
        cts = [b.public_input((ct.blocks[0] + 1) % R)]
        assert_ctr_encryption(b, b.var(key), [b.var(10)], b.var(nonce), cts)
        with pytest.raises(UnsatisfiedConstraintError):
            b.compile()

    def test_length_mismatch(self):
        b = CircuitBuilder()
        with pytest.raises(ValueError):
            assert_ctr_encryption(b, b.var(1), [b.var(2)], b.var(3), [])


class TestPoseidonGadget:
    def test_permutation_matches_native(self):
        b = CircuitBuilder()
        state = [b.var(v) for v in (1, 2, 3)]
        out = poseidon_permutation(b, state)
        native = Poseidon.get(3).permute([1, 2, 3])
        assert [b.value(w) for w in out] == native
        compile_ok(b)

    @pytest.mark.parametrize("inputs", [[], [5], [1, 2], [1, 2, 3, 4, 5]])
    def test_hash_matches_native(self, inputs):
        b = CircuitBuilder()
        wires = [b.var(v) for v in inputs]
        out = poseidon_hash_gadget(b, wires)
        assert b.value(out) == poseidon_hash(inputs)
        compile_ok(b)


def assert_deterministic(builder, inputs):
    """Every gate defines one fresh wire — its c, with qO != 0 — from wires
    defined earlier, so the witness is a function of ``inputs`` and a
    gadget that matches the native primitive leaves nothing free.  A round
    gate defines two from its a and b: its c (t^3) and the next gate's a.
    A partial round's first row defines three from its a and c and the next
    row's a: its b (a^3) and the next row's b and c, whose next-a gate
    then defines the a of the row after it."""
    defined = set(inputs)
    gates = builder._gates
    for i, g in enumerate(gates):
        if g.qround:
            assert g.a in defined and g.b in defined
            assert g.c not in defined and gates[i + 1].a not in defined
            defined.update((g.c, gates[i + 1].a))
            continue
        if g.qpartial:
            second = gates[i + 1]
            assert g.a in defined and g.c in defined and second.a in defined
            assert not {g.b, second.b, second.c} & defined
            defined.update((g.b, second.b, second.c))
            continue
        if g.qnext:
            assert {g.a, g.b, g.c} <= defined and gates[i + 1].a not in defined
            defined.add(gates[i + 1].a)
            continue
        assert g.a in defined or not (g.ql or g.qm or g.q3)
        assert g.b in defined or not (g.qr or g.qm or g.q3)
        assert g.qo and g.c not in defined
        defined.add(g.c)


class TestCubicGateGadgetsMatchNative:
    """The Poseidon / MiMC gadgets against the textbook native forms
    (Poseidon's is ``tests/poseidon_oracle.py``: the library's runs its
    partial rounds in lane coordinates, the gadget on constants moved to
    lane 0), on seeded random field elements."""

    @pytest.mark.parametrize("count", [1, 2, 3, 5])
    def test_hash(self, count, chaos_seed):
        rng = random.Random("%d:hash:%d" % (chaos_seed, count))
        values = [rng.randrange(R) for _ in range(count)]
        b = CircuitBuilder()
        wires = [b.var(v) for v in values]
        out = poseidon_hash_gadget(b, wires)
        assert b.value(out) == poseidon_hash(values)
        assert_deterministic(b, wires)
        compile_ok(b)

    def test_permutation_with_three_live_lanes(self, chaos_seed):
        """The Merkle node path: no lane is a build-time constant."""
        rng = random.Random("%d:permutation" % chaos_seed)
        values = [rng.randrange(R) for _ in range(3)]
        b = CircuitBuilder()
        wires = [b.var(v) for v in values]
        out = poseidon_permutation(b, wires)
        assert [b.value(w) for w in out] == Poseidon.get(3).permute(values)
        assert_deterministic(b, wires)
        compile_ok(b)

    def test_mimc_block(self, chaos_seed):
        rng = random.Random("%d:mimc" % chaos_seed)
        key, block = rng.randrange(R), rng.randrange(R)
        b = CircuitBuilder()
        wires = [b.var(key), b.var(block)]
        out = mimc_block(b, *wires)
        assert b.value(out) == MiMC().encrypt_block(key, block)
        assert_deterministic(b, wires)
        compile_ok(b)

    def test_wrong_intermediate_value_is_caught(self):
        """A cubic row is checked like any other: nudge an S-box output."""
        b = CircuitBuilder()
        poseidon_hash_gadget(b, [b.var(3)])
        layout, assignment = b.compile()
        row = next(i for i, q in enumerate(layout.q3) if q)
        assignment.c[row] = (assignment.c[row] + 1) % R
        with pytest.raises(UnsatisfiedConstraintError):
            layout.check(assignment)


class TestMerkle:
    def test_native_tree_and_proofs(self):
        tree = MerkleTree([10, 20, 30, 40])
        for i, leaf in enumerate((10, 20, 30, 40)):
            proof = tree.prove(i)
            assert MerkleTree.verify(tree.root, leaf, proof)
            assert not MerkleTree.verify(tree.root, leaf + 1, proof)

    def test_tree_rejects_bad_shapes(self):
        with pytest.raises(ReproError):
            MerkleTree([])
        with pytest.raises(ReproError):
            MerkleTree([1, 2, 3], depth=1)
        with pytest.raises(ReproError):
            MerkleTree([1, 2]).prove(5)

    def test_padding_leaves(self):
        tree = MerkleTree([10, 20, 30], depth=3)
        assert MerkleTree.verify(tree.root, 30, tree.prove(2))
        assert MerkleTree.verify(tree.root, 0, tree.prove(7))

    def test_membership_gadget(self):
        tree = MerkleTree([10, 20, 30, 40])
        proof = tree.prove(2)
        b = CircuitBuilder()
        root = b.public_input(tree.root)
        leaf = b.var(30)
        assert_merkle_membership(b, root, leaf, proof)
        compile_ok(b)

    def test_membership_gadget_rejects_wrong_leaf(self):
        tree = MerkleTree([10, 20, 30, 40])
        proof = tree.prove(2)
        b = CircuitBuilder()
        assert_merkle_membership(b, b.public_input(tree.root), b.var(31), proof)
        with pytest.raises(UnsatisfiedConstraintError):
            b.compile()


class TestFixedPoint:
    spec = FixedPointSpec(frac_bits=12, int_bits=12)

    def test_encode_decode(self):
        s = self.spec
        assert abs(s.decode(s.encode(1.5)) - 1.5) < 1e-3
        assert abs(s.decode(s.encode(-2.75)) + 2.75) < 1e-3
        with pytest.raises(CircuitError):
            s.encode(1e9)

    # Products must stay within int_bits = 12 (|x*y| < 2048), so draw from
    # a comfortably in-range box.
    @given(st.floats(-40, 40), st.floats(-40, 40))
    @settings(max_examples=25, deadline=None)
    def test_mul_gadget_matches_native(self, x, y):
        s = self.spec
        a, bb = s.encode(x), s.encode(y)
        b = CircuitBuilder()
        out = fp_mul(b, b.var(a), b.var(bb), s)
        assert b.value(out) == s.mul_native(a, bb)
        compile_ok(b)
        assert abs(s.decode(b.value(out)) - x * y) < 0.1

    def test_truncate_negative_floor(self):
        s = self.spec
        b = CircuitBuilder()
        raw = (-5) % R  # -5 / 2^12 truncates (floors) to -1
        out = fp_truncate(b, b.var(raw), s)
        assert s.to_signed(b.value(out)) == -1
        compile_ok(b)

    def test_is_negative_abs_relu(self):
        s = self.spec
        b = CircuitBuilder()
        pos, neg = b.var(s.encode(2.0)), b.var(s.encode(-2.0))
        assert b.value(fp_is_negative(b, pos, s)) == 0
        assert b.value(fp_is_negative(b, neg, s)) == 1
        assert s.decode(b.value(fp_abs(b, neg, s))) == 2.0
        assert s.decode(b.value(fp_relu(b, neg, s))) == 0.0
        assert s.decode(b.value(fp_relu(b, pos, s))) == 2.0
        compile_ok(b)

    def test_assert_le(self):
        s = self.spec
        b = CircuitBuilder()
        fp_assert_le(b, b.var(s.encode(-3.0)), b.var(s.encode(0.5)), s)
        compile_ok(b)
        b2 = CircuitBuilder()
        fp_assert_le(b2, b2.var(s.encode(1.0)), b2.var(s.encode(0.5)), s)
        with pytest.raises(UnsatisfiedConstraintError):
            b2.compile()

    def test_poly_gadget_matches_native(self):
        s = self.spec
        coeffs = sigmoid_coefficients(s)
        x = s.encode(0.7)
        b = CircuitBuilder()
        out = fp_poly(b, coeffs, b.var(x), s)
        assert b.value(out) == s.poly_native(coeffs, x)
        compile_ok(b)
        # Approximation sanity: sigmoid(0.7) ~ 0.668.
        assert abs(s.decode(b.value(out)) - 0.668) < 0.01

    def test_log_approximation(self):
        import math

        s = FixedPointSpec(frac_bits=16, int_bits=8)
        coeffs = log_coefficients(s)
        for x in (0.3, 0.5, 0.7):
            val = s.poly_native(coeffs, s.encode(x))
            assert abs(s.decode(val) - math.log(x)) < 0.05


class TestLinalg:
    spec = FixedPointSpec(frac_bits=12, int_bits=12)

    def test_dot_and_matvec_match_native(self):
        s = self.spec
        mat = [[s.encode(v) for v in row] for row in [[1.0, 2.0], [0.5, -1.5]]]
        vec = [s.encode(v) for v in [3.0, 4.0]]
        b = CircuitBuilder()
        mat_w = [[b.var(v) for v in row] for row in mat]
        vec_w = [b.var(v) for v in vec]
        out = fp_matvec(b, mat_w, vec_w, s)
        native = matvec_native(mat, vec, s)
        assert [b.value(w) for w in out] == native
        assert abs(s.decode(native[0]) - 11.0) < 0.01
        assert abs(s.decode(native[1]) + 4.5) < 0.01
        compile_ok(b)

    def test_vec_add(self):
        b = CircuitBuilder()
        out = fp_vec_add(b, [b.var(1), b.var(2)], [b.var(3), b.var(4)])
        assert [b.value(w) for w in out] == [4, 6]
        with pytest.raises(CircuitError):
            fp_vec_add(b, [b.var(1)], [])

    def test_softmax_sums_to_one(self):
        s = self.spec
        b = CircuitBuilder()
        xs = [b.var(s.encode(v)) for v in (0.2, -0.3, 0.5)]
        out = fp_softmax(b, xs, s)
        vals = [s.decode(b.value(w)) for w in out]
        assert abs(sum(vals) - 1.0) < 0.05
        assert all(v > 0 for v in vals)
        # Larger logits get larger mass.
        assert vals[2] > vals[0] > vals[1]
        compile_ok(b)
