"""Tests for R1CS, the QAP reduction, and Groth16 (the ZKCP baseline)."""

import hashlib
import itertools

import pytest

from repro.errors import CircuitError, UnsatisfiedConstraintError
from repro.curve.fq import Q, fq2_add, fq2_mul, fq2_square
from repro.curve.g1 import G1
from repro.curve.g2 import B2, G2
from repro.field.fr import MODULUS as R
from repro.groth16 import (
    QAP,
    Groth16Proof,
    groth16_prove,
    groth16_setup,
    groth16_verify,
    verification_group_operations,
)
from repro.r1cs import R1CSBuilder


def _cube_circuit(x_value, y_value, w_value):
    """Statement: I know w with w^3 + w + 5 == x and w * x == y."""
    b = R1CSBuilder()
    x = b.public_input(x_value)
    y = b.public_input(y_value)
    w = b.var(w_value)
    w2 = b.mul(w, w)
    w3 = b.mul(w2, w)
    t = b.linear_combination([(1, w3), (1, w)], 5)
    b.assert_equal(t, x)
    prod = b.mul(w, x)
    b.assert_equal(prod, y)
    return b.compile()


def _fq_sqrt(a):
    root = pow(a, (Q + 1) // 4, Q)  # q = 3 mod 4
    return root if root * root % Q == a % Q else None


def _fq2_sqrt(a):
    """A square root in F_q2 = F_q[u]/(u^2 + 1) by the complex method."""
    a0, a1 = a
    alpha = _fq_sqrt((a0 * a0 + a1 * a1) % Q)
    if alpha is None:
        return None
    for delta in ((a0 + alpha) * pow(2, -1, Q) % Q, (a0 - alpha) * pow(2, -1, Q) % Q):
        x0 = _fq_sqrt(delta)
        if x0:
            return (x0, a1 * pow(2 * x0, -1, Q) % Q)
    return None


def _twist_point_outside_g2():
    """A point of E'(F_q2) that is not in the order-r subgroup.

    The twist's cofactor is ~2^254, so the first x with a square right
    hand side almost surely qualifies; the loop only guards the claim.
    """
    for x0 in itertools.count(1):
        x = (x0, 1)
        y = _fq2_sqrt(fq2_add(fq2_mul(fq2_square(x), x), B2))
        if y is not None and not G2(x, y).in_subgroup():
            return G2(x, y)


class TestR1CS:
    def test_builder_and_check(self):
        system, witness = _cube_circuit(35, 105, 3)
        assert witness.public_inputs == [35, 105]
        assert system.num_public == 2
        system.check(witness)

    def test_check_rejects_bad_witness(self):
        system, witness = _cube_circuit(35, 105, 3)
        witness.values[3] = 4
        with pytest.raises(UnsatisfiedConstraintError):
            system.check(witness)

    def test_check_rejects_bad_shape(self):
        system, witness = _cube_circuit(35, 105, 3)
        witness.values.append(0)
        with pytest.raises(CircuitError):
            system.check(witness)
        witness.values = [0] * system.num_variables
        with pytest.raises(CircuitError):
            system.check(witness)

    def test_public_after_private_rejected(self):
        b = R1CSBuilder()
        b.var(1)
        with pytest.raises(CircuitError):
            b.public_input(2)

    def test_helpers(self):
        b = R1CSBuilder()
        x, y = b.var(6), b.var(7)
        assert b.value(b.mul(x, y)) == 42
        assert b.value(b.add(x, y)) == 13
        assert b.value(b.linear_combination([(2, x), (-1, y)], 3)) == 8
        b.assert_constant(x, 6)
        system, witness = b.compile()
        system.check(witness)


class TestQAP:
    def test_from_r1cs_shapes(self):
        system, witness = _cube_circuit(35, 105, 3)
        qap = QAP.from_r1cs(system)
        assert qap.m >= system.num_constraints
        assert qap.m & (qap.m - 1) == 0
        assert qap.num_variables == system.num_variables

    def test_evaluations_match_dense_interpolation(self):
        system, witness = _cube_circuit(35, 105, 3)
        qap = QAP.from_r1cs(system)
        tau = 987654321
        u_at, v_at, w_at = qap.evaluations_at(tau)
        # Cross-check one variable against dense Lagrange interpolation.
        from repro.field.ntt import Domain
        from repro.field import poly as poly_mod

        domain = Domain.get(qap.m)
        var = 3
        col = [0] * qap.m
        for i, (a, _b, _c) in enumerate(system.constraints):
            col[i] = a.get(var, 0)
        dense = domain.ifft(col)
        assert poly_mod.evaluate(dense, tau) == u_at[var]

    def test_quotient_exists_for_valid_witness(self):
        system, witness = _cube_circuit(35, 105, 3)
        qap = QAP.from_r1cs(system)
        h = qap.quotient(witness.values)
        assert len(h) <= qap.m - 1

    def test_quotient_fails_for_invalid_witness(self):
        system, witness = _cube_circuit(35, 105, 3)
        qap = QAP.from_r1cs(system)
        bad = list(witness.values)
        bad[3] = 12345
        with pytest.raises(CircuitError):
            qap.quotient(bad)

    def test_empty_system_rejected(self):
        b = R1CSBuilder()
        b.var(1)
        system, _ = b.compile()
        with pytest.raises(CircuitError):
            QAP.from_r1cs(system)


@pytest.mark.slow
class TestGroth16:
    def test_completeness(self):
        system, witness = _cube_circuit(35, 105, 3)
        pk, vk = groth16_setup(system)
        proof = groth16_prove(pk, witness)
        assert groth16_verify(vk, [35, 105], proof)

    def test_wrong_public_inputs_rejected(self):
        system, witness = _cube_circuit(35, 105, 3)
        pk, vk = groth16_setup(system)
        proof = groth16_prove(pk, witness)
        assert not groth16_verify(vk, [35, 106], proof)
        assert not groth16_verify(vk, [35], proof)

    def test_tampered_proof_rejected(self):
        system, witness = _cube_circuit(35, 105, 3)
        pk, vk = groth16_setup(system)
        proof = groth16_prove(pk, witness)
        bad = Groth16Proof(proof.a + G1.generator(), proof.b, proof.c)
        assert not groth16_verify(vk, [35, 105], bad)
        bad2 = Groth16Proof(proof.a, proof.b, proof.c + G1.generator())
        assert not groth16_verify(vk, [35, 105], bad2)

    def test_proofs_are_randomised_but_both_verify(self):
        system, witness = _cube_circuit(35, 105, 3)
        pk, vk = groth16_setup(system)
        p1 = groth16_prove(pk, witness)
        p2 = groth16_prove(pk, witness)
        assert p1.a != p2.a  # fresh r, s
        assert groth16_verify(vk, [35, 105], p1)
        assert groth16_verify(vk, [35, 105], p2)

    def test_proof_size_constant(self):
        system, witness = _cube_circuit(35, 105, 3)
        pk, _ = groth16_setup(system)
        assert groth16_prove(pk, witness).size_bytes == 256

    def test_op_counts_grow_with_public_inputs(self):
        ops_small = verification_group_operations(2)
        ops_big = verification_group_operations(100)
        assert ops_small["pairings"] == ops_big["pairings"] == 3
        assert ops_big["g1_scalar_mults"] > ops_small["g1_scalar_mults"]

    def test_public_input_aliases_are_refused(self):
        # vk_x reduces mod r: without the range check x + r is a second
        # statement settled by the proof for x.
        system, witness = _cube_circuit(35, 105, 3)
        pk, vk = groth16_setup(system)
        proof = groth16_prove(pk, witness)
        assert groth16_verify(vk, [35, 105], proof)
        for alias in ([35 + R, 105], [35 - R, 105], [35, 105 + R], [-1, 105], [35, R]):
            assert not groth16_verify(vk, alias, proof)

    def test_proof_b_outside_the_subgroup_is_refused_without_raising(self):
        system, witness = _cube_circuit(35, 105, 3)
        pk, vk = groth16_setup(system)
        proof = groth16_prove(pk, witness)
        stray = _twist_point_outside_g2()
        assert proof.b.in_subgroup() and not stray.in_subgroup()
        for b in (stray, proof.b + stray):
            forged = Groth16Proof(proof.a, b, proof.c)
            assert groth16_verify(vk, [35, 105], forged) is False

    def test_alpha_beta_gt_golden(self, monkeypatch):
        # e(alpha, beta) is part of the verifying key; the digest was
        # recorded at f159c58, before the pairing kernels were rewritten,
        # with the trapdoor drawn from this counter.
        counter = itertools.count(0x5EED)
        monkeypatch.setattr(
            "repro.groth16.protocol.random_scalar", lambda nonzero=False: next(counter)
        )
        system, witness = _cube_circuit(35, 105, 3)
        pk, vk = groth16_setup(system)
        assert vk.alpha_g1 == G1.generator() * 0x5EEE
        digest = hashlib.sha256(b"".join(c.to_bytes(32, "big") for c in vk.alpha_beta_gt))
        assert digest.hexdigest() == (
            "f471a21b308921afeeb21aca16a17089bc4ee882d533edc34567f7ba46b1e64b"
        )
        # The proof draws r and s from the same counter: its bytes are a
        # function of (key, witness, counter) alone.
        proof = groth16_prove(pk, witness)
        assert groth16_verify(vk, [35, 105], proof)
        digest = hashlib.sha256(proof.a.to_bytes() + proof.b.to_bytes() + proof.c.to_bytes())
        assert digest.hexdigest() == (
            "76882f2a8226fbf3489283629f5f70376606e7257d5e89b99cd3e4c4d605277d"
        )
