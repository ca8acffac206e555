"""End-to-end tests for the Plonk proving system.

Covers Definition 2.5 (completeness), the rejection surface that knowledge
soundness implies for concrete attacks (Definition 2.6), and the succinct
proof shape the paper reports (9 G1 + 6 field elements).
"""

import dataclasses
import hashlib
import itertools
import random

import pytest

from repro import faults
from repro.errors import (
    CircuitError,
    ProofError,
    SerializationError,
    SRSError,
    UnsatisfiedConstraintError,
)
from repro.backend import Engine
from repro.curve.g1 import G1
from repro.field import poly
from repro.field.fr import MODULUS as R
from repro.field.ntt import Domain
from repro.kzg import SRS, commit, commit_message, commit_scalar
from repro.gadgets.mimc import mimc_block
from repro.kzg.commit import message_poly
from repro.plonk import CircuitBuilder, Proof, batch_verify, prove, prover, setup, verify
from repro.plonk.circuit import Layout, link_indicator
from repro.plonk.verifier import verification_group_operations


@pytest.fixture(scope="module")
def srs():
    return SRS.generate(64, tau=987654321)


def _square_circuit(x_value, y_value, w_value=3):
    """Public x, y; private w with w^2 = x and w + x = y (toy relation)."""
    builder = CircuitBuilder()
    x = builder.public_input(x_value)
    y = builder.public_input(y_value)
    w = builder.var(w_value)
    w2 = builder.mul(w, w)
    builder.assert_equal(w2, x)
    s = builder.add(w, x)
    builder.assert_equal(s, y)
    return builder.compile()


def _one_gate_circuit():
    """Public x; private w with w^2 = x: pads to n = 4, the one size whose
    quotient still needs the 8n coset."""
    builder = CircuitBuilder()
    x = builder.public_input(9)
    w = builder.var(3)
    builder.assert_equal(builder.mul(w, w), x)
    return builder.compile()


def _sbox_circuit():
    """Public y; private w with y = ((w + 11)^5)^7.  Every constrained row
    but the last is a cubic gate: a Poseidon-style S-box with its round
    constant folded into qM/qL/qR/qC, then x^7 as two ``square_mul``."""
    c = 11
    w_value = 3
    builder = CircuitBuilder()
    y = builder.public_input(pow(pow(w_value + c, 5, R), 7, R))
    w = builder.var(w_value)
    x3 = builder.var((w_value + c) ** 3)
    builder.gate(a=w, b=w, c=x3, q3=1, qm=3 * c, ql=3 * c * c, qc=c**3, qo=-1)
    x5 = builder.var((w_value + c) ** 5)
    builder.gate(a=w, b=x3, c=x5, q3=1, qm=2 * c, qr=c * c, qo=-1)
    x35 = builder.square_mul(builder.square_mul(x5, x5), x5)
    builder.assert_equal(x35, y)
    return builder.compile()


def _round_circuit(builder=None, check=True, rounds=8, key=111, block=222):
    """Public y = E_key(block), MiMC over ``rounds`` rounds on the round
    gate: a row a round, the key addition and the equality (n = 16 at 8
    rounds).  y is whatever the builder's rounds compute."""
    builder = CircuitBuilder() if builder is None else builder
    out = mimc_block(builder, builder.var(key), builder.var(block), rounds=rounds)
    builder.assert_equal(out, builder.public_input(builder.value(out)))
    return builder.compile(check=check)


def _partial_circuit():
    """Public y, the first lane after five Poseidon partial rounds on the
    partial-round gate: two rows a round (qpartial, then qnext) and the
    equality (n = 16)."""
    builder = CircuitBuilder()
    x, s1, s2 = (builder.var(v) for v in (5, 6, 7))
    for k in range(5):
        x, s1, s2 = builder.poseidon_partial_round(x, s1, s2, 1000 + k)
    builder.assert_equal(x, builder.public_input(builder.value(x)))
    return builder.compile()


class TestCircuitBuilder:
    def test_compile_pads_to_power_of_two(self):
        layout, assignment = _square_circuit(9, 12)
        assert layout.n & (layout.n - 1) == 0
        assert layout.ell == 2
        assert assignment.public_inputs == [9, 12]

    def test_layout_check_catches_bad_witness(self):
        layout, assignment = _square_circuit(9, 12)
        assignment.c[layout.ell] = 999
        with pytest.raises(UnsatisfiedConstraintError):
            layout.check(assignment)

    def test_builder_operations_compute_values(self):
        b = CircuitBuilder()
        x = b.var(6)
        y = b.var(7)
        assert b.value(b.mul(x, y)) == 42
        assert b.value(b.add(x, y)) == 13
        assert b.value(b.sub(x, y)) == R - 1
        assert b.value(b.scale(x, 10)) == 60
        assert b.value(b.add_const(x, 4)) == 10
        assert b.value(b.square_mul(x, y)) == 252
        assert b.value(b.mul_add(x, y, x)) == 48
        assert b.value(b.mul_add_const(x, y, 8)) == 50
        assert b.value(b.linear_combination([(2, x), (3, y), (5, x)], 1)) == 64
        assert b.value(b.linear_combination([(2, x)], 4)) == 16
        assert b.value(b.linear_combination([], 9)) == 9
        b.assert_bool(b.var(1))
        b.assert_not_zero(x)
        b.assert_mul(x, y, b.var(42))
        b.assert_zero(b.var(0))
        layout, assignment = b.compile()
        layout.check(assignment)

    def test_constants_are_deduplicated(self):
        b = CircuitBuilder()
        c1 = b.constant(5)
        c2 = b.constant(5)
        assert c1 == c2

    def test_gate_after_compile_fails(self):
        b = CircuitBuilder()
        b.var(1)
        b.compile()
        with pytest.raises(CircuitError):
            b.gate(ql=1)

    def test_identical_circuits_share_layout(self):
        layout1, _ = _square_circuit(9, 12)
        layout2, _ = _square_circuit(16, 20, w_value=4)
        assert layout1.digest() == layout2.digest()

    def test_sigma_is_permutation(self):
        layout, _ = _square_circuit(9, 12)
        assert sorted(layout.sigma) == list(range(3 * layout.n))


@pytest.mark.slow
class TestPlonkEndToEnd:
    def test_completeness(self, srs):
        layout, assignment = _square_circuit(9, 12)
        pk, vk = setup(srs, layout)
        proof = prove(pk, assignment)
        assert verify(vk, [9, 12], proof)

    def test_same_vk_different_witness(self, srs):
        layout, assignment = _square_circuit(9, 12)
        pk, vk = setup(srs, layout)
        # Different public inputs (and witness) under the SAME keys.
        builder = CircuitBuilder()
        x = builder.public_input(25)
        y = builder.public_input(30)
        w = builder.var(5)
        builder.assert_equal(builder.mul(w, w), x)
        builder.assert_equal(builder.add(w, x), y)
        layout2, assignment2 = builder.compile()
        assert layout2.digest() == layout.digest()
        proof = prove(pk, assignment2)
        assert verify(vk, [25, 30], proof)
        assert not verify(vk, [9, 12], proof)

    def test_wrong_public_inputs_rejected(self, srs):
        layout, assignment = _square_circuit(9, 12)
        pk, vk = setup(srs, layout)
        proof = prove(pk, assignment)
        assert not verify(vk, [9, 13], proof)
        assert not verify(vk, [9], proof)

    def test_tampered_proof_rejected(self, srs):
        layout, assignment = _square_circuit(9, 12)
        pk, vk = setup(srs, layout)
        proof = prove(pk, assignment)
        bad_point = proof.c_a + G1.generator()
        assert not verify(vk, [9, 12], proof.replace(c_a=bad_point))
        assert not verify(vk, [9, 12], proof.replace(a_bar=(proof.a_bar + 1) % R))
        assert not verify(vk, [9, 12], proof.replace(z_omega_bar=0))
        assert not verify(vk, [9, 12], proof.replace(w_zeta=G1.generator()))

    def test_unsatisfied_witness_cannot_be_proved(self, srs):
        layout, assignment = _square_circuit(9, 12)
        pk, _vk = setup(srs, layout)
        assignment.a[layout.ell] = 4  # break the witness
        with pytest.raises((UnsatisfiedConstraintError, ProofError)):
            prove(pk, assignment)

    def test_proof_shape_matches_paper(self, srs):
        layout, assignment = _square_circuit(9, 12)
        pk, vk = setup(srs, layout)
        proof = prove(pk, assignment)
        assert proof.num_g1_elements == 9
        assert proof.num_field_elements == 6
        data = proof.to_bytes()
        assert len(data) == proof.size_bytes == 9 * 64 + 6 * 32
        restored = Proof.from_bytes(data)
        assert verify(vk, [9, 12], restored)

    def test_proof_deserialisation_rejects_garbage(self):
        with pytest.raises(SerializationError):
            Proof.from_bytes(b"\x00" * 10)
        good = b"\x00" * (9 * 64) + (R).to_bytes(32, "little") + b"\x00" * (5 * 32)
        with pytest.raises(SerializationError):
            Proof.from_bytes(good)

    def test_proofs_are_randomised(self, srs):
        layout, assignment = _square_circuit(9, 12)
        pk, vk = setup(srs, layout)
        p1 = prove(pk, assignment)
        p2 = prove(pk, assignment)
        assert p1.to_bytes() != p2.to_bytes()  # zero-knowledge blinding
        assert verify(vk, [9, 12], p1) and verify(vk, [9, 12], p2)

    def test_deterministic_mode(self, srs):
        layout, assignment = _square_circuit(9, 12)
        pk, vk = setup(srs, layout)
        p1 = prove(pk, assignment, blinding=False)
        p2 = prove(pk, assignment, blinding=False)
        assert p1.to_bytes() == p2.to_bytes()
        assert verify(vk, [9, 12], p1)

    def test_setup_rejects_small_srs(self):
        layout, _ = _square_circuit(9, 12)
        small = SRS.generate(4, tau=5)
        with pytest.raises(SRSError):
            setup(small, layout)

    def test_cubic_gates_prove_and_verify(self, srs):
        layout, assignment = _sbox_circuit()
        assert sum(1 for q in layout.q3 if q) == 4
        pk, vk = setup(srs, layout)
        proof = prove(pk, assignment)
        assert verify(vk, assignment.public_inputs, proof)
        assert not verify(vk, [assignment.public_inputs[0] + 1], proof)

    def test_vanilla_circuit_commits_q3_to_the_identity(self, srs):
        layout, _ = _square_circuit(9, 12)
        assert not any(layout.q3)
        _pk, vk = setup(srs, layout)
        assert vk.c_q3 == G1.identity()

    def test_no_public_inputs(self, srs):
        builder = CircuitBuilder()
        w = builder.var(6)
        builder.assert_constant(builder.mul(w, w), 36)
        layout, assignment = builder.compile()
        pk, vk = setup(srs, layout)
        proof = prove(pk, assignment)
        assert verify(vk, [], proof)


class TestQuotientRound:
    """Round 3 computes t on the smallest coset that holds it; the proof
    bytes and the abort-on-bad-witness property are those of the
    interpolate-then-divide prover it replaced."""

    #: sha256 of ``proof.to_bytes()``, SRS tau = 987654321; the blinded rows
    #: draw blinders 1000003, 1000003 + 7919, ...  Re-recorded at PR 17, the
    #: commit that added the q3 selector (child of c767512): the transcript
    #: now binds a ninth key commitment, so the challenges moved.  They are
    #: what c767512's prover emits when its ``vk.digest()`` alone is given
    #: the identity point in c_q3's place — the rounds did not change for a
    #: circuit whose q3 column is zero.  (Before: recorded at 0bfa3ba.)
    GOLDEN = {
        ("n4", False): "7e3924f743f1acba1d5db078ae07fe6b8547f096094f7cb40c46a24eb95e5f86",
        ("n8", False): "b30b4e3564c4b14d6ad473b8c833aca4f9c70fee3e9eeaf85d2848bc88a794b0",
        ("n4", True): "5a64aa09da8408de1b264cc9066c2cb63c254c728ab9c9439aa080b269f4c7d6",
        ("n8", True): "b4bd557d50e46ec7f7b33e721987f4aae44aa8f4b86aaf2e5f327acd8fb126e7",
        ("sbox", False): "22337eac44df6490b60524a413a78522a5ac38540425cbb6a8e40b4000f49516",
        ("sbox", True): "ce6b477f4a7700d138793d519eab83038d99b8fe525bc13a7e34984cf1a8e62d",
        ("round", False): "f7c3e51e09dba2374f02d3da78c5cbf49e521b21ad438152f3b7f23de954c72a",
        ("round", True): "dc17bc8582a3b9046e79bccabee7645b7e76406c4e529954da14654a21e2f2f3",
        ("partial", False): "865a0cb8ad9a174045f57b89ac967776c0480398f14cb90e2ebdc9c851b29af0",
        ("partial", True): "bb260dd61ae215a455afb1a9b2b3000bfc4a639214ffb4bfa4fb1af4de84c6be",
    }
    #: ``vk.digest()`` of the gate circuits: one pin for each selector a key
    #: has beyond the gate-less n4 and n8 circuits' — q3 (sbox), qround
    #: (round, a at zeta omega), qpartial and qnext (partial, a, b and c at
    #: zeta omega).  These and their GOLDEN entries were recorded at 028f192.
    KEY_GOLDEN = {
        "sbox": "a5562a43ef2e4a5bfa650b4afffb7fec37d81289764419c128377570c766cce2",
        "round": "697a186fac892a529fd34cfffbd6d3dff8b5ee7f81091d2123167414fe83a9dc",
        "partial": "b4f05bca7b7e357bab1a1979dec3382ad0afc514bf1237fa72f43e439b4ce192",
    }
    CIRCUITS = {
        "n4": _one_gate_circuit,
        "n8": lambda: _square_circuit(9, 12),
        "sbox": _sbox_circuit,
        "round": _round_circuit,
        "partial": _partial_circuit,
    }
    SIZES = {"n4": 4, "n8": 8, "sbox": 8, "round": 16, "partial": 16}

    def _pinned_proof_digest(self, srs, monkeypatch, name, blinding):
        """Prove and verify circuit ``name`` with the pinned blinders; the
        sha256 of the proof bytes."""
        layout, assignment = self.CIRCUITS[name]()
        assert layout.n == self.SIZES[name]
        pk, vk = setup(srs, layout)
        if name in self.KEY_GOLDEN:
            assert vk.digest().hex() == self.KEY_GOLDEN[name]
        blinders = itertools.count(1000003, 7919)
        monkeypatch.setattr(prover, "random_scalar", lambda nonzero=False: next(blinders))
        proof = prove(pk, assignment, blinding=blinding)
        assert verify(vk, assignment.public_inputs, proof)
        return hashlib.sha256(proof.to_bytes()).hexdigest()

    @pytest.mark.parametrize("blinding", [False, True])
    @pytest.mark.parametrize("name", ["n4", "n8", "sbox", "round", "partial"])
    def test_proof_bytes_equal_the_parent_commits(self, srs, monkeypatch, name, blinding):
        digest = self._pinned_proof_digest(srs, monkeypatch, name, blinding)
        assert digest == self.GOLDEN[name, blinding]

    def test_a_plan_failing_every_site_never_reaches_the_prover(self, srs, monkeypatch):
        """The fault plane is measurement-layer code: under a plan that
        fails every consultation of every site, proving and verifying
        consult it zero times and the pinned proofs keep their bytes."""
        plan = faults.FaultPlan(seed=0, rules=(faults.FaultRule("*", "loss", faults.PPM),))
        with faults.use_plan(plan) as injector:
            digests = {
                key: self._pinned_proof_digest(srs, monkeypatch, *key) for key in self.GOLDEN
            }
        assert digests == self.GOLDEN
        assert injector.consultations == 0

    @pytest.mark.parametrize("blinding", [False, True])
    @pytest.mark.parametrize("name", ["n4", "n8", "sbox", "round", "partial"])
    def test_bad_witness_aborts_without_the_layout_check(self, srs, monkeypatch, name, blinding):
        """Corrupt each wire cell in turn: whatever ``Layout.check`` rejects,
        the rounds themselves must refuse to prove."""
        layout, _ = self.CIRCUITS[name]()
        pk, _vk = setup(srs, layout)
        real_check = Layout.check
        monkeypatch.setattr(Layout, "check", lambda self, assignment: None)
        rejected = 0
        for column, row in itertools.product("abc", range(layout.n)):
            _, assignment = self.CIRCUITS[name]()
            getattr(assignment, column)[row] += 5
            try:
                real_check(layout, assignment)
            except UnsatisfiedConstraintError:
                rejected += 1
                with pytest.raises(ProofError):
                    prove(pk, assignment, blinding=blinding)
        assert rejected >= layout.n  # the sweep did hit constrained cells


def _linked_circuit(srs, key, rho, point=None, x_value=3):
    """Public x and y = key * x, with the key wire linked to ``point``
    (by default the honest [key] under ``rho``)."""
    point = commit_scalar(srs, key, rho) if point is None else point
    builder = CircuitBuilder()
    x = builder.public_input(x_value)
    y = builder.public_input(key * x_value % R)
    k = builder.var(key)
    builder.link(k, point, rho)
    builder.assert_equal(builder.mul(k, x), y)
    return builder.compile()


class TestRoundShortcuts:
    """The prover's ways round an FFT, each against the formula it replaced."""

    @pytest.mark.parametrize("n", [8, 16, 256])
    def test_rotated_coset_evaluations_are_p_at_omega_x(self, n):
        """On a coset of k n points, p(omega X) is p's evaluations rotated
        by k: what the quotient reads for z(omega X) and the shifted wires."""
        rng = random.Random(n)
        p = [rng.randrange(R) for _ in range(n + 3)]
        omega = Domain.get(n).omega
        p_omega = [c * pow(omega, i, R) % R for i, c in enumerate(p)]
        engine = Engine()
        for k in (4, 8):
            rotated = prover._rotate(engine.coset_ntt(p, k * n), k)
            assert rotated == engine.coset_ntt(p_omega, k * n)

    @pytest.mark.parametrize("n", [16, 256])
    @pytest.mark.parametrize("count", [2, 3])
    def test_blind_adds_the_blinders_times_z_h(self, n, count):
        """``_blind`` writes b(X)(X^n - 1) in place, as ``poly.mul`` did;
        zero blinders (the unblinded path) leave the coefficients as they are."""
        rng = random.Random(n + count)
        coeffs = [rng.randrange(R) for _ in range(n)]
        z_h = [R - 1] + [0] * (n - 1) + [1]
        for blinders in ([rng.randrange(1, R) for _ in range(count)], [0] * count):
            want = poly.add(coeffs, poly.mul(blinders, z_h))
            assert prover._blind(coeffs, blinders, n) == want

    @pytest.mark.parametrize("n", [4, 8, 256])
    def test_l1_coefficients_are_the_interpolated_unit_vector(self, n):
        """The prover writes L_1's coefficients (each 1/n) instead of
        interpolating the unit vector e_0."""
        assert link_indicator(n, 1) == Engine().intt([1] + [0] * (n - 1))


class TestLinkedCommitment:
    """A key wire linked to a KZG point [k] through row 0 (DESIGN.md, "The
    linked commitments"): the honest proof verifies, and every way of
    pointing it at another scalar is rejected."""

    KEY, RHO = 1234567, 7654321

    @pytest.fixture(scope="class")
    def linked(self, srs):
        layout, assignment = _linked_circuit(srs, self.KEY, self.RHO)
        pk, vk = setup(srs, layout)
        point = commit_scalar(srs, self.KEY, self.RHO)
        return pk, vk, assignment.public_inputs, prove(pk, assignment), point

    def test_honest_linked_proof_verifies(self, linked):
        _pk, vk, publics, proof, point = linked
        assert vk.links == 1
        assert verify(vk, publics, proof, point)

    def test_batch_mixes_linking_and_plain_members(self, srs, linked):
        pk, vk, publics, proof, point = linked
        other_layout, other = _linked_circuit(srs, 99, 5)
        other_point = commit_scalar(srs, 99, 5)
        other_proof = prove(pk, other)
        plain_layout, plain = _square_circuit(9, 12)
        plain_pk, plain_vk = setup(srs, plain_layout)
        plain_proof = prove(plain_pk, plain)
        members = [
            (vk, publics, proof, point),
            (plain_vk, plain.public_inputs, plain_proof),
            (vk, other.public_inputs, other_proof, other_point),
            (vk, publics, proof, point),
        ]
        assert batch_verify(members)
        # A linked member under the wrong point fails the fold.
        members[2] = (vk, other.public_inputs, other_proof, point)
        assert not batch_verify(members)

    def test_fold_sums_a_shared_point_by_identity(self, monkeypatch, linked):
        """Members naming one point object share its term; an equal point
        in another object is its own term (nothing is merged by value)."""
        _pk, vk, publics, proof, point = linked
        sizes = []
        real_fold = Engine.fold_pairing_check

        def counted(engine, tau_side, one_side, g2_tau, g2):
            sizes.extend((len(tau_side), len(one_side)))
            return real_fold(engine, tau_side, one_side, g2_tau, g2)

        monkeypatch.setattr(Engine, "fold_pairing_check", counted)
        copy = G1(point.x, point.y)
        assert batch_verify([(vk, publics, proof, point)] * 3)
        assert batch_verify([(vk, publics, proof, point)] * 2 + [(vk, publics, proof, copy)])
        # The key brings nine points: no row of it is cubic, so [q3] is
        # the identity, which the fold leaves out.
        assert vk.c_q3.inf
        assert sizes == [6, 9 * 3 + 9 + 1, 6, 9 * 3 + 9 + 2]

    def test_another_tokens_commitment_rejected(self, srs, linked):
        _pk, vk, publics, proof, _point = linked
        other = commit_scalar(srs, self.KEY + 1, self.RHO)
        assert not verify(vk, publics, proof, other)
        # Same key, another blinder: another commitment, another statement.
        assert not verify(vk, publics, proof, commit_scalar(srs, self.KEY, self.RHO + 1))

    def test_identity_commitment_rejected(self, linked):
        _pk, vk, publics, proof, _point = linked
        assert not verify(vk, publics, proof, G1.identity())

    def test_commitment_swapped_after_proving_rejected(self, srs, linked):
        pk, vk, publics, proof, point = linked
        layout, other = _linked_circuit(srs, 99, 5)
        other_point = commit_scalar(srs, 99, 5)
        other_proof = prove(pk, other)
        assert verify(vk, other.public_inputs, other_proof, other_point)
        assert not verify(vk, publics, proof, other_point)
        assert not verify(vk, other.public_inputs, other_proof, point)

    def test_key_not_under_the_commitment_rejected(self, srs, linked):
        """The prover absorbs the statement's point as given; a witness key
        that is not the scalar under it yields a proof that fails."""
        pk, vk, _publics, _proof, point = linked
        wrong_key = self.KEY + 1
        _layout, assignment = _linked_circuit(srs, wrong_key, self.RHO, point=point)
        forged = prove(pk, assignment)
        assert not verify(vk, assignment.public_inputs, forged, point)
        own_point = commit_scalar(srs, wrong_key, self.RHO)
        assert not verify(vk, assignment.public_inputs, forged, own_point)

    def test_link_and_key_must_agree(self, srs, linked):
        _pk, vk, publics, proof, point = linked
        assert not verify(vk, publics, proof)  # a linking key without [k]
        plain_layout, plain = _square_circuit(9, 12)
        plain_pk, plain_vk = setup(srs, plain_layout)
        plain_proof = prove(plain_pk, plain)
        assert verify(plain_vk, plain.public_inputs, plain_proof)
        assert not verify(plain_vk, plain.public_inputs, plain_proof, point)

    def test_one_point_serves_every_domain_size(self, srs):
        """d(1) = k at every n: the same [k] links an n = 4 and an n = 16
        circuit."""
        point = commit_scalar(srs, self.KEY, self.RHO)
        for padding in (0, 10):
            builder = CircuitBuilder()
            x = builder.public_input(3)
            k = builder.var(self.KEY)
            builder.link(k, point, self.RHO)
            for _ in range(padding):
                builder.assert_equal(k, k)
            builder.assert_equal(builder.add(k, x), builder.constant(self.KEY + 3))
            layout, assignment = builder.compile()
            pk, vk = setup(srs, layout)
            assert verify(vk, assignment.public_inputs, prove(pk, assignment), point)

    def test_link_costs_no_row_and_enters_the_digests_only_when_set(self, srs):
        linked_layout, _ = _linked_circuit(srs, self.KEY, self.RHO)
        builder = CircuitBuilder()
        x = builder.public_input(3)
        y = builder.public_input(self.KEY * 3 % R)
        k = builder.var(self.KEY)
        builder.assert_equal(builder.mul(k, x), y)
        plain_layout, _ = builder.compile()
        assert (linked_layout.n, plain_layout.n, plain_layout.links) == (4, 4, 0)
        assert linked_layout.qr == plain_layout.qr  # row 0's b slot stays unread
        assert linked_layout.digest() != plain_layout.digest()
        assert setup(srs, linked_layout)[1].digest() != setup(srs, plain_layout)[1].digest()
        # Neither has a cubic row: the fold leaves out [q3], the identity.
        assert verification_group_operations(setup(srs, linked_layout)[1])["g1_scalar_mults"] == 19
        assert verification_group_operations(setup(srs, plain_layout)[1])["g1_scalar_mults"] == 18

    def test_links_take_the_three_slots_of_row_zero(self, srs):
        """Links take b, c, then a; a fourth is refused, and so is a third
        in a circuit whose row 0 holds a public input in its a slot."""
        point = commit_scalar(srs, 5, 6)
        builder = CircuitBuilder()
        k = builder.var(5)
        for _ in range(3):
            builder.link(k, point, 6)
        with pytest.raises(CircuitError, match="at most 3"):
            builder.link(k, point, 6)
        builder.assert_equal(k, k)
        assert builder.compile()[0].link_slots == ((1, 1), (2, 1), (0, 1))
        builder = CircuitBuilder()
        builder.public_input(5)
        for _ in range(3):
            builder.link(builder.var(5), point, 6)
        with pytest.raises(CircuitError, match="public input"):
            builder.compile()


def _message_circuit(srs, message, k_point=None, d_point=None, key=1234567, rho=7654321, data_rho=99):
    """Public x, y = key * x and s = sum(message); the key is linked in row
    0's b slot, the message in the c slots of rows j n/m (padded to m)."""
    k_point = commit_scalar(srs, key, rho) if k_point is None else k_point
    d_point = commit_message(srs, message, data_rho) if d_point is None else d_point
    builder = CircuitBuilder()
    x = builder.public_input(3)
    y = builder.public_input(key * 3 % R)
    total = builder.public_input(sum(message))
    k = builder.var(key)
    entries = [builder.var(v) for v in message]
    builder.link(k, k_point, rho)
    builder.link(entries, d_point, data_rho)
    builder.assert_equal(builder.mul(k, x), y)
    builder.assert_equal(builder.linear_combination([(1, w) for w in entries]), total)
    layout, assignment = builder.compile()
    return layout, assignment, (k_point, d_point)


class TestLinkedMessage:
    """A message of m entries linked to its KZG point [d] through the rows
    j n/m (DESIGN.md, "The linked commitments"), next to a linked key: the
    honest proof verifies, and every way of pointing it at another
    message is rejected."""

    MESSAGE = [101, 202, 303]  # m = 4: one padding entry, linked to 0
    DATA_RHO = 99

    @pytest.fixture(scope="class")
    def linked(self, srs):
        layout, assignment, points = _message_circuit(srs, self.MESSAGE)
        pk, vk = setup(srs, layout)
        return pk, vk, assignment.public_inputs, prove(pk, assignment), points

    def test_honest_proof_verifies_and_rows_hold_the_message(self, linked):
        pk, vk, publics, proof, points = linked
        assert vk.link_slots == ((1, 1), (2, 4))
        assert verify(vk, publics, proof, points)
        layout = pk.layout
        # Rows j n/4 past the public inputs are reserved: no gate reads them.
        step = layout.n // 4
        for row in range(step, layout.n, step):
            assert (layout.ql[row], layout.qr[row], layout.qo[row], layout.qm[row]) == (0,) * 4

    def _rejects(self, srs, linked, points):
        """The statement ``points`` is rejected twice: against the honest
        proof (the transcript binds the points), and against a proof made
        under it from the honest witness (the link term binds them: the
        prover absorbs the points as given and builds d from the wires)."""
        pk, vk, publics, proof, _points = linked
        _layout, assignment, _ = _message_circuit(srs, self.MESSAGE, *points)
        made_under = prove(pk, assignment)
        return not verify(vk, publics, proof, points) and not verify(
            vk, assignment.public_inputs, made_under, points
        )

    def test_another_tokens_commitment_rejected(self, srs, linked):
        k_point, _d_point = linked[4]
        other = commit_message(srs, self.MESSAGE, self.DATA_RHO + 1)
        assert self._rejects(srs, linked, (k_point, other))

    @pytest.mark.parametrize("entry", ["first", "middle", "last", "padding"])
    def test_a_message_differing_in_one_entry_rejected(self, srs, linked, entry):
        k_point, _d_point = linked[4]
        padded = self.MESSAGE + [0]
        index = {"first": 0, "middle": 1, "last": 2, "padding": 3}[entry]
        padded[index] += 1
        forged = commit(srs, message_poly(padded, self.DATA_RHO))
        assert self._rejects(srs, linked, (k_point, forged))

    @pytest.mark.parametrize("entry", [0, 1, 2])
    def test_a_witness_not_under_the_commitment_rejected(self, srs, linked, entry):
        """The prover absorbs the statement's [d] as given: a witness entry
        that is not the committed one yields a proof that fails."""
        pk, vk, _publics, _proof, points = linked
        altered = list(self.MESSAGE)
        altered[entry] += 1
        _layout, assignment, _ = _message_circuit(srs, altered, *points)
        forged = prove(pk, assignment)
        assert not verify(vk, assignment.public_inputs, forged, points)

    def test_identity_and_swapped_points_rejected(self, srs, linked):
        _pk, vk, publics, proof, (k_point, d_point) = linked
        assert not verify(vk, publics, proof, (k_point, G1.identity()))
        assert self._rejects(srs, linked, (d_point, k_point))
        assert not verify(vk, publics, proof, k_point)  # one link short

    def test_three_messages_link_without_public_inputs(self, srs):
        """An aggregation-shaped circuit: C = A ++ B, each linked (slots b,
        c and a of the rows j n/m); swapping any two points fails."""
        a_vals, b_vals = [5, 6], [7, 8, 9, 10]
        points = [commit_message(srs, v, rho) for v, rho in ((a_vals, 3), (b_vals, 4), (a_vals + b_vals, 5))]
        builder = CircuitBuilder()
        wires = []
        for vals, point, rho in zip((a_vals, b_vals, a_vals + b_vals), points, (3, 4, 5)):
            wires.append([builder.var(v) for v in vals])
            builder.link(wires[-1], point, rho)
        for src, dst in zip(wires[0] + wires[1], wires[2]):
            builder.assert_equal(src, dst)
        layout, assignment = builder.compile()
        assert layout.link_slots == ((1, 2), (2, 4), (0, 8)) and layout.ell == 0
        pk, vk = setup(srs, layout)
        proof = prove(pk, assignment)
        assert verify(vk, [], proof, tuple(points))
        assert not verify(vk, [], proof, (points[1], points[0], points[2]))
        assert not verify(vk, [], proof, (points[0], points[1], points[1]))

    def test_fold_mixes_message_key_and_plain_members(self, srs, linked):
        pk, vk, publics, proof, points = linked
        other_layout, other, other_points = _message_circuit(srs, [7, 8], data_rho=5)
        other_pk, other_vk = setup(srs, other_layout)
        other_proof = prove(other_pk, other)
        plain_layout, plain = _square_circuit(9, 12)
        plain_pk, plain_vk = setup(srs, plain_layout)
        members = [
            (vk, publics, proof, points),
            (plain_vk, plain.public_inputs, prove(plain_pk, plain)),
            (other_vk, other.public_inputs, other_proof, other_points),
        ]
        assert batch_verify(members)
        members[2] = (other_vk, other.public_inputs, other_proof, (other_points[0], points[1]))
        assert not batch_verify(members)

    def test_link_slots_enter_both_digests(self, srs):
        """Each link's column and m are structure: the layout and the key
        that differ only in them hash apart."""
        one, _, _ = _message_circuit(srs, [1, 2, 3])
        for slots in (((1, 1), (2, 2)), ((2, 1), (1, 4)), ((1, 1),)):
            other = dataclasses.replace(one, link_slots=slots)
            assert other.digest() != one.digest()
            assert setup(srs, other)[1].digest() != setup(srs, one)[1].digest()
        # Two links, no cubic row ([q3], the identity, is left out).
        assert verification_group_operations(setup(srs, one)[1])["g1_scalar_mults"] == 20
