"""Proof-mutation fuzzing: every field of a valid proof is load-bearing.

Knowledge soundness is not directly testable, but a cheap and strong
corollary is: take an honestly generated proof and flip any single
component — any of the 9 G1 commitments or 6 scalar evaluations of a
Plonk proof (7 with a MiMC round gate's a(zeta omega), 9 with a Poseidon
partial-round gate's a, b and c there), any of the (A, B, C) elements of
a Groth16 proof, or any
public input — and the verifier must reject.  A mutation that survives
verification would mean that component never entered the pairing checks,
i.e. a forgery degree of freedom.

Mutations stay inside the valid encoding space (points remain on-curve,
scalars remain reduced) so every rejection is semantic, not a parsing
artifact; a verifier that raises on a mutant instead of returning False
is also accepted.
"""

import dataclasses
import random

import pytest

from repro.curve.g1 import G1
from repro.curve.g2 import G2
from repro.errors import ReproError
from repro.field.fr import MODULUS as R
from repro.groth16 import Groth16Proof, groth16_prove, groth16_setup, groth16_verify
from repro.kzg import SRS, commit_scalar
from repro.plonk import CircuitBuilder, Transcript, prove, setup, verify
from repro.plonk.proof import _POINT_FIELDS, _SCALAR_FIELDS, _SHIFTED_FIELDS
from repro.r1cs import R1CSBuilder
from tests.test_plonk import _round_circuit, _sbox_circuit

pytestmark = pytest.mark.slow


def _rejects(checker):
    """A mutant is rejected if the verifier says False *or* raises."""
    try:
        return not checker()
    except ReproError:
        return True


# ---------------------------------------------------------------------------
# Plonk
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def plonk_case():
    builder = CircuitBuilder()
    x = builder.public_input(9)
    y = builder.public_input(12)
    w = builder.var(3)
    builder.assert_equal(builder.mul(w, w), x)
    builder.assert_equal(builder.add(w, x), y)
    layout, assignment = builder.compile()
    srs = SRS.generate(64, tau=987654321)
    pk, vk = setup(srs, layout)
    proof = prove(pk, assignment)
    publics = assignment.public_inputs
    assert verify(vk, publics, proof)  # sanity: the unmutated proof passes
    return vk, publics, proof


def _degenerate_mutations():
    """``(id, proof -> kwargs for Proof.replace)`` for the hostile slice:
    identity / generator / negated / neighbouring points in every slot,
    boundary values in every evaluation."""
    cases = []
    for i, field in enumerate(_POINT_FIELDS):
        neighbour = _POINT_FIELDS[(i + 1) % len(_POINT_FIELDS)]
        cases += [
            (field + "=identity", lambda p, f=field: {f: G1.identity()}),
            (field + "=generator", lambda p, f=field: {f: G1.generator()}),
            (field + "=negated", lambda p, f=field: {f: -getattr(p, f)}),
            (field + "=" + neighbour, lambda p, f=field, n=neighbour: {f: getattr(p, n)}),
        ]
    cases += [
        ("all-points=identity", lambda p: dict.fromkeys(_POINT_FIELDS, G1.identity())),
        ("openings=identity", lambda p: dict.fromkeys(("w_zeta", "w_zeta_omega"), G1.identity())),
    ]
    for field in _SCALAR_FIELDS:
        for value in (0, 1, R - 1):
            label = "%s=%s" % (field, "r-1" if value > 1 else value)
            cases.append((label, lambda p, f=field, v=value: {f: v}))
    return cases


class TestPlonkProofMutation:
    @pytest.mark.parametrize(
        "mutation", [pytest.param(m, id=i) for i, m in _degenerate_mutations()]
    )
    def test_degenerate_component_rejected(self, plonk_case, mutation):
        """Verdict False or a ``repro.errors`` exception — ``_rejects``
        lets a ZeroDivisionError / IndexError / ValueError through as a
        failure.  An identity point is dropped by the MSM's term filter
        and the pairing skips an identity member, so none of these
        reaches a kernel as a degenerate operand."""
        vk, publics, proof = plonk_case
        mutant = proof.replace(**mutation(proof))
        assert mutant != proof
        assert _rejects(lambda: verify(vk, publics, mutant))

    @pytest.mark.parametrize("field", _POINT_FIELDS)
    def test_nudged_commitment_rejected(self, plonk_case, field):
        vk, publics, proof = plonk_case
        mutant = proof.replace(**{field: getattr(proof, field) + G1.generator()})
        assert _rejects(lambda: verify(vk, publics, mutant)), field

    @pytest.mark.parametrize("field", _POINT_FIELDS)
    def test_replaced_commitment_rejected(self, plonk_case, field):
        vk, publics, proof = plonk_case
        mutant = proof.replace(**{field: G1.generator() * 7})
        assert _rejects(lambda: verify(vk, publics, mutant)), field

    @pytest.mark.parametrize("field", _SCALAR_FIELDS)
    def test_incremented_scalar_rejected(self, plonk_case, field):
        vk, publics, proof = plonk_case
        mutant = proof.replace(**{field: (getattr(proof, field) + 1) % R})
        assert _rejects(lambda: verify(vk, publics, mutant)), field

    @pytest.mark.parametrize("field", _SCALAR_FIELDS)
    def test_randomized_scalar_rejected(self, plonk_case, field, chaos_seed):
        vk, publics, proof = plonk_case
        rng = random.Random("%d:%s" % (chaos_seed, field))
        original = getattr(proof, field)
        value = original
        while value == original:
            value = rng.randrange(R)
        mutant = proof.replace(**{field: value})
        assert _rejects(lambda: verify(vk, publics, mutant)), field

    def test_each_public_input_is_binding(self, plonk_case):
        vk, publics, proof = plonk_case
        for i in range(len(publics)):
            mutated = list(publics)
            mutated[i] = (mutated[i] + 1) % R
            assert _rejects(lambda: verify(vk, mutated, proof)), "public[%d]" % i

    def test_swapped_commitments_rejected(self, plonk_case):
        """Two valid points in each other's slots still fail: the checks
        bind each commitment to its role, not just to the curve."""
        vk, publics, proof = plonk_case
        mutant = proof.replace(c_a=proof.c_b, c_b=proof.c_a)
        assert _rejects(lambda: verify(vk, publics, mutant))


@pytest.fixture(scope="module")
def cubic_case():
    """A circuit whose constrained rows are cubic gates (test_plonk's
    S-box circuit, y = ((w + 11)^5)^7)."""
    layout, assignment = _sbox_circuit()
    pk, vk = setup(SRS.generate(64, tau=987654321), layout)
    proof = prove(pk, assignment)
    publics = assignment.public_inputs
    assert verify(vk, publics, proof)
    return vk, publics, proof


class TestCubicGateProofMutation:
    """The same surface over a proof whose gate identity runs through q3."""

    def test_every_commitment_is_load_bearing(self, cubic_case):
        vk, publics, proof = cubic_case
        for field in _POINT_FIELDS:
            mutant = proof.replace(**{field: getattr(proof, field) + G1.generator()})
            assert _rejects(lambda: verify(vk, publics, mutant)), field

    def test_every_scalar_is_load_bearing(self, cubic_case):
        vk, publics, proof = cubic_case
        for field in _SCALAR_FIELDS:
            mutant = proof.replace(**{field: (getattr(proof, field) + 1) % R})
            assert _rejects(lambda: verify(vk, publics, mutant)), field

    def test_public_input_is_binding(self, cubic_case):
        vk, publics, proof = cubic_case
        assert _rejects(lambda: verify(vk, [(publics[0] + 1) % R], proof))

    def test_key_without_the_cubic_selector_rejects(self, cubic_case, monkeypatch):
        """Swap ``c_q3`` for the identity: the proof must fail — and not
        only because ``vk.digest()`` moved the challenges.  With the digest
        pinned to the honest key's, the a^2*b*[q3] term is simply missing
        from the verifier's MSM and the pairing equation breaks."""
        vk, publics, proof = cubic_case
        stripped = dataclasses.replace(vk, c_q3=G1.identity())
        assert _rejects(lambda: verify(stripped, publics, proof))
        honest_digest = vk.digest()
        monkeypatch.setattr(type(vk), "digest", lambda self: honest_digest)
        assert verify(vk, publics, proof)  # sanity: pinning changes nothing
        assert _rejects(lambda: verify(stripped, publics, proof))


@pytest.fixture(scope="module")
def round_case():
    """A circuit of MiMC round gates (test_plonk's round circuit, 8 rounds):
    its proofs carry a seventh evaluation, a(zeta omega)."""
    layout, assignment = _round_circuit()
    pk, vk = setup(SRS.generate(64, tau=987654321), layout)
    proof = prove(pk, assignment)
    publics = assignment.public_inputs
    assert proof.a_omega_bar is not None and verify(vk, publics, proof)
    return vk, publics, proof


class TestRoundGateProofMutation:
    """The same surface over a proof whose rows are round gates, plus its
    shifted evaluation a(zeta omega)."""

    def test_every_component_is_load_bearing(self, round_case):
        vk, publics, proof = round_case
        for field in _POINT_FIELDS:
            mutant = proof.replace(**{field: getattr(proof, field) + G1.generator()})
            assert _rejects(lambda: verify(vk, publics, mutant)), field
        for field in _SCALAR_FIELDS + _SHIFTED_FIELDS[:1]:
            mutant = proof.replace(**{field: (getattr(proof, field) + 1) % R})
            assert _rejects(lambda: verify(vk, publics, mutant)), field

    @pytest.mark.parametrize("value", [0, 1, R - 1, None], ids=["0", "1", "r-1", "missing"])
    def test_degenerate_shifted_evaluation_rejected(self, round_case, value):
        vk, publics, proof = round_case
        mutant = proof.replace(a_omega_bar=value)
        assert mutant != proof
        assert _rejects(lambda: verify(vk, publics, mutant))

    def test_randomized_shifted_evaluation_rejected(self, round_case, chaos_seed):
        vk, publics, proof = round_case
        rng = random.Random("%d:a_omega_bar" % chaos_seed)
        value = proof.a_omega_bar
        while value == proof.a_omega_bar:
            value = rng.randrange(R)
        assert _rejects(lambda: verify(vk, publics, proof.replace(a_omega_bar=value)))

    def test_key_without_the_round_selector_rejects(self, round_case, monkeypatch):
        """Swap ``c_qround`` for the identity with ``vk.digest()`` pinned to
        the honest key's: the [qround] term alone is missing and the
        pairing equation breaks."""
        vk, publics, proof = round_case
        stripped = dataclasses.replace(vk, c_qround=G1.identity())
        honest_digest = vk.digest()
        monkeypatch.setattr(type(vk), "digest", lambda self: honest_digest)
        assert verify(vk, publics, proof)  # sanity: pinning changes nothing
        assert _rejects(lambda: verify(stripped, publics, proof))


@pytest.fixture(scope="module")
def partial_case():
    """Three Poseidon partial rounds on their gate: its proofs carry a, b
    and c at zeta omega, nine evaluations."""
    builder = CircuitBuilder()
    x, s1, s2 = (builder.var(v) for v in (5, 6, 7))
    for k in range(3):
        x, s1, s2 = builder.poseidon_partial_round(x, s1, s2, k + 1)
    builder.assert_equal(x, builder.public_input(builder.value(x)))
    layout, assignment = builder.compile()
    pk, vk = setup(SRS.generate(64, tau=987654321), layout)
    proof = prove(pk, assignment)
    publics = assignment.public_inputs
    assert proof.shifted == (0, 1, 2) and verify(vk, publics, proof)
    return vk, publics, proof


class TestPartialRoundProofMutation:
    """The same surface over a proof of partial-round gates, whose three
    evaluations at zeta omega are each load-bearing."""

    def test_every_component_is_load_bearing(self, partial_case):
        vk, publics, proof = partial_case
        for field in _POINT_FIELDS:
            mutant = proof.replace(**{field: getattr(proof, field) + G1.generator()})
            assert _rejects(lambda: verify(vk, publics, mutant)), field
        for field in _SCALAR_FIELDS + _SHIFTED_FIELDS:
            mutant = proof.replace(**{field: (getattr(proof, field) + 1) % R})
            assert _rejects(lambda: verify(vk, publics, mutant)), field

    @pytest.mark.parametrize("field", _SHIFTED_FIELDS)
    @pytest.mark.parametrize("value", [0, 1, R - 1, None], ids=["0", "1", "r-1", "missing"])
    def test_degenerate_shifted_evaluation_rejected(self, partial_case, field, value):
        vk, publics, proof = partial_case
        mutant = proof.replace(**{field: value})
        assert mutant != proof
        assert _rejects(lambda: verify(vk, publics, mutant))

    @pytest.mark.parametrize("selector", ["c_qpartial", "c_qnext"])
    def test_key_without_a_shifted_selector_rejects(self, partial_case, monkeypatch, selector):
        """Swap [qpartial] or [qnext] for the identity, which the fold
        leaves out, with ``vk.digest()`` pinned to the honest key's: the
        pairing equation breaks."""
        vk, publics, proof = partial_case
        stripped = dataclasses.replace(vk, **{selector: G1.identity()})
        honest_digest = vk.digest()
        monkeypatch.setattr(type(vk), "digest", lambda self: honest_digest)
        assert verify(vk, publics, proof)  # sanity: pinning changes nothing
        assert _rejects(lambda: verify(stripped, publics, proof))


@pytest.fixture(scope="module")
def linked_case():
    """A circuit whose key wire is linked to a KZG point [k] (row 0's b
    slot): the point is part of the statement, so it is mutated too."""
    srs = SRS.generate(64, tau=987654321)
    key, rho = 4242, 1717
    point = commit_scalar(srs, key, rho)
    builder = CircuitBuilder()
    x = builder.public_input(3)
    y = builder.public_input(key * 3)
    k = builder.var(key)
    builder.link(k, point, rho)
    builder.assert_equal(builder.mul(k, x), y)
    layout, assignment = builder.compile()
    pk, vk = setup(srs, layout)
    proof = prove(pk, assignment)
    publics = assignment.public_inputs
    assert verify(vk, publics, proof, point)
    return srs, vk, publics, proof, point


class TestLinkedProofMutation:
    """The same surface over a linked proof, plus mutants of [k]."""

    def test_every_component_is_load_bearing(self, linked_case):
        _srs, vk, publics, proof, point = linked_case
        for field in _POINT_FIELDS:
            mutant = proof.replace(**{field: getattr(proof, field) + G1.generator()})
            assert _rejects(lambda: verify(vk, publics, mutant, point)), field
        for field in _SCALAR_FIELDS:
            mutant = proof.replace(**{field: (getattr(proof, field) + 1) % R})
            assert _rejects(lambda: verify(vk, publics, mutant, point)), field

    def test_mutated_commitment_rejected(self, linked_case):
        srs, vk, publics, proof, point = linked_case
        mutants = {
            "identity": G1.identity(),
            "generator": G1.generator(),
            "negated": -point,
            "nudged": point + G1.generator(),
            "doubled": point + point,
            "tau-power": srs.g1_powers[1],
            "proof-point": proof.c_b,
            "other-key": commit_scalar(srs, 4243, 1717),
            "other-blinder": commit_scalar(srs, 4242, 1718),
            "unblinded": commit_scalar(srs, 4242, 0),
        }
        for name, mutant in mutants.items():
            assert _rejects(lambda: verify(vk, publics, proof, mutant)), name

    def test_commitment_is_in_the_equation_not_only_the_transcript(self, linked_case, monkeypatch):
        """Pin the transcript to the honest [k]: a nudged point must still
        fail, because the link term multiplies the point itself in the
        pairing equation (d(zeta) is never revealed, so nothing else
        carries it)."""
        _srs, vk, publics, proof, point = linked_case
        absorb = Transcript.append_point

        def pinned(self, label, p):
            absorb(self, label, point if label == b"link" else p)

        monkeypatch.setattr(Transcript, "append_point", pinned)
        assert verify(vk, publics, proof, point)  # sanity: pinning changes nothing
        assert _rejects(lambda: verify(vk, publics, proof, point + G1.generator()))
        assert _rejects(lambda: verify(vk, publics, proof, commit_scalar(_srs, 4243, 1717)))


# ---------------------------------------------------------------------------
# Groth16
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def groth16_case():
    b = R1CSBuilder()
    x = b.public_input(35)
    y = b.public_input(105)
    w = b.var(3)
    w2 = b.mul(w, w)
    w3 = b.mul(w2, w)
    t = b.linear_combination([(1, w3), (1, w)], 5)
    b.assert_equal(t, x)
    b.assert_equal(b.mul(w, x), y)
    system, witness = b.compile()
    pk, vk = groth16_setup(system)
    proof = groth16_prove(pk, witness)
    publics = witness.public_inputs
    assert groth16_verify(vk, publics, proof)
    return vk, publics, proof


class TestGroth16ProofMutation:
    def test_mutated_a_rejected(self, groth16_case):
        vk, publics, proof = groth16_case
        mutant = Groth16Proof(a=proof.a + G1.generator(), b=proof.b, c=proof.c)
        assert _rejects(lambda: groth16_verify(vk, publics, mutant))

    def test_mutated_b_rejected(self, groth16_case):
        vk, publics, proof = groth16_case
        mutant = Groth16Proof(a=proof.a, b=proof.b + G2.generator(), c=proof.c)
        assert _rejects(lambda: groth16_verify(vk, publics, mutant))

    def test_mutated_c_rejected(self, groth16_case):
        vk, publics, proof = groth16_case
        mutant = Groth16Proof(a=proof.a, b=proof.b, c=proof.c + G1.generator())
        assert _rejects(lambda: groth16_verify(vk, publics, mutant))

    def test_replaced_elements_rejected(self, groth16_case, chaos_seed):
        vk, publics, proof = groth16_case
        rng = random.Random(chaos_seed)
        s = rng.randrange(2, R)
        mutants = [
            Groth16Proof(a=G1.generator() * s, b=proof.b, c=proof.c),
            Groth16Proof(a=proof.a, b=G2.generator() * s, c=proof.c),
            Groth16Proof(a=proof.a, b=proof.b, c=G1.generator() * s),
        ]
        for i, mutant in enumerate(mutants):
            assert _rejects(lambda: groth16_verify(vk, publics, mutant)), i

    def test_each_public_input_is_binding(self, groth16_case):
        vk, publics, proof = groth16_case
        for i in range(len(publics)):
            mutated = list(publics)
            mutated[i] = (mutated[i] + 1) % R
            assert _rejects(lambda: groth16_verify(vk, mutated, proof)), "public[%d]" % i
