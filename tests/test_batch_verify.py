"""Tests for batched Plonk verification."""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.plonk.batch as batch_module
from repro.backend import Engine, use_engine
from repro.backend.engine import MIN_MSM_POINTS
from repro.curve.g1 import G1
from repro.errors import VerificationError
from repro.field.fr import MODULUS as R
from repro.kzg import SRS
from repro.plonk import CircuitBuilder, batch_verify, prove, setup, verify
from repro.plonk.proof import _POINT_FIELDS, _SCALAR_FIELDS
from tests.plonk_oracle import prepare_pairing_inputs
from tests.test_plonk import _sbox_circuit

pytestmark = pytest.mark.slow


@pytest.fixture(scope="module")
def srs():
    return SRS.generate(64, tau=13579)


@pytest.fixture(scope="module")
def instances(srs):
    """Three proofs: two from one circuit, one from another."""

    def square(x_val, w_val):
        b = CircuitBuilder()
        x = b.public_input(x_val)
        w = b.var(w_val)
        b.assert_equal(b.mul(w, w), x)
        return b.compile()

    def cube(x_val, w_val):
        b = CircuitBuilder()
        x = b.public_input(x_val)
        w = b.var(w_val)
        b.assert_equal(b.mul(b.mul(w, w), w), x)
        return b.compile()

    layout_sq, a1 = square(9, 3)
    pk_sq, vk_sq = setup(srs, layout_sq)
    _, a2 = square(25, 5)
    layout_cu, a3 = cube(27, 3)
    pk_cu, vk_cu = setup(srs, layout_cu)

    return [
        (vk_sq, [9], prove(pk_sq, a1)),
        (vk_sq, [25], prove(pk_sq, a2)),
        (vk_cu, [27], prove(pk_cu, a3)),
    ]


@pytest.fixture(scope="module")
def cubic_instance(srs):
    """A proof under a key whose ``c_q3`` is a real commitment."""
    layout, assignment = _sbox_circuit()
    pk, vk = setup(srs, layout)
    assert vk.c_q3 != G1.identity()
    return vk, assignment.public_inputs, prove(pk, assignment)


class TestBatchVerify:
    def test_valid_batch_accepts(self, instances):
        assert batch_verify(instances)

    def test_empty_batch(self):
        assert batch_verify([])

    def test_single_item_matches_plain_verify(self, instances):
        vk, publics, proof = instances[0]
        assert verify(vk, publics, proof)
        assert batch_verify([instances[0]])

    def test_one_bad_proof_poisons_the_batch(self, instances):
        vk, publics, proof = instances[1]
        bad = proof.replace(c_a=proof.c_a + G1.generator())
        assert not batch_verify([instances[0], (vk, publics, bad), instances[2]])

    def test_wrong_publics_poison_the_batch(self, instances):
        vk, _, proof = instances[0]
        assert not batch_verify([(vk, [10], proof), instances[1]])
        assert not batch_verify([(vk, [], proof)])  # structural reject

    def test_mixed_srs_rejected(self, instances):
        other_srs = SRS.generate(32, tau=24680)
        b = CircuitBuilder()
        x = b.public_input(4)
        w = b.var(2)
        b.assert_equal(b.mul(w, w), x)
        layout, assignment = b.compile()
        pk, vk = setup(other_srs, layout)
        foreign = (vk, [4], prove(pk, assignment))
        with pytest.raises(VerificationError):
            batch_verify([instances[0], foreign])
        # [1]_2 is compared as well as [tau]_2.
        same_tau = dataclasses.replace(instances[1][0], g2=vk.g2 + vk.g2)
        with pytest.raises(VerificationError):
            batch_verify([instances[0], (same_tau,) + instances[1][1:]])

    def test_public_input_outside_the_field_is_a_structural_reject(self, instances):
        """x + r and x - r hash and evaluate like x; only x is a statement."""
        vk, (x,), proof = instances[0]
        for alias in (x + R, x - R, -1):
            assert not verify(vk, [alias], proof)
            assert not batch_verify([instances[1], (vk, [alias], proof)])
        assert verify(vk, [x], proof)



def _tamper(member, kind, which):
    """A copy of ``member`` changed in one proof point, evaluation or
    public input (always a real change, always inside the encoding)."""
    vk, publics, proof = member
    if kind == "point":
        field = _POINT_FIELDS[which % len(_POINT_FIELDS)]
        return vk, publics, proof.replace(**{field: getattr(proof, field) + G1.generator()})
    if kind == "scalar":
        field = _SCALAR_FIELDS[which % len(_SCALAR_FIELDS)]
        return vk, publics, proof.replace(**{field: (getattr(proof, field) + 1) % R})
    i = which % len(publics)
    return vk, publics[:i] + [(publics[i] + 1) % R] + publics[i + 1 :], proof


class TestFold:
    """The fold multiplies once: what it multiplies, and what it decides."""

    @pytest.mark.parametrize("members", [(0, 1), (0, 1, 2)], ids=["one-key", "mixed-keys"])
    def test_folded_points_equal_the_weighted_sum_of_evaluated_members(
        self, instances, monkeypatch, members
    ):
        """Differential against the deleted evaluate-then-fold verifier:
        the two points handed to the pairing check are sum rho_i L_i and
        sum rho_i R_i of the old per-member (L_i, R_i)."""
        items = [instances[i] for i in members]
        rhos = [1] + [0xC0FFEE + i * 0x9E3779B97F4A7C15 for i in range(len(items) - 1)]
        drawn = iter(rhos[1:])
        monkeypatch.setattr(batch_module, "random_scalar", lambda nonzero=False: next(drawn))
        engine = Engine()
        seen = []
        real_check = engine.fold_pairing_check
        monkeypatch.setattr(
            engine,
            "fold_pairing_check",
            lambda *args: seen.append(args) or real_check(*args),
        )
        with use_engine(engine):
            assert batch_verify(items)
        (tau_side, one_side, g2_tau, g2), = seen
        assert (g2_tau, g2) == (items[0][0].g2_tau, items[0][0].g2)
        lhs = engine.msm_g1([p for p, _ in tau_side], [s for _, s in tau_side])
        neg_rhs = -engine.msm_g1([p for p, _ in one_side], [s for _, s in one_side])
        expected_lhs = expected_rhs = G1.identity()
        for rho, (vk, publics, proof) in zip(rhos, items):
            l_i, r_i = prepare_pairing_inputs(vk, publics, proof)
            expected_lhs += l_i * rho
            expected_rhs += r_i * rho
        assert lhs == expected_lhs
        assert -neg_rhs == expected_rhs

    @given(
        tampers=st.lists(
            st.one_of(
                st.none(),
                st.tuples(st.sampled_from(["point", "scalar", "public"]), st.integers(0, 50)),
            ),
            min_size=3,
            max_size=3,
        )
    )
    @settings(max_examples=20, deadline=None)
    def test_batch_fails_iff_some_member_fails(self, instances, tampers):
        members = [
            member if t is None else _tamper(member, *t) for member, t in zip(instances, tampers)
        ]
        each = [verify(*member) for member in members]
        assert each == [t is None for t in tampers]
        assert batch_verify(members) == all(each)

    def test_same_proof_twice_is_two_members(self, instances):
        """The benchmark's shape (eight buyers, one bundle) — and the reason
        members are never merged by value: each copy is weighted and
        checked on its own."""
        member = instances[0]
        assert batch_verify([member, member])
        assert not batch_verify([member, _tamper(member, "scalar", 0)])
        assert not batch_verify([_tamper(member, "point", 8), member])

    def test_vanilla_and_cubic_keys_in_one_batch(self, instances, cubic_instance):
        assert instances[0][0].c_q3 == G1.identity()
        batch = [instances[0], cubic_instance, instances[2], cubic_instance]
        assert batch_verify(batch)
        batch[1] = _tamper(cubic_instance, "scalar", 1)
        assert not batch_verify(batch)

    def test_parallel_backend_gives_the_same_verdicts(self, instances, cubic_instance):
        """An engine with a helper verifies too.  16 members put
        9*16 + 30 points in the second MSM — past ``MIN_MSM_POINTS`` —
        but a fold's points are the proofs' own, not a fixed table, so
        the engine decides in-process and forks nothing."""
        batch = [(instances + [cubic_instance])[i % 4] for i in range(16)]
        poisoned = list(batch)
        poisoned[11] = _tamper(poisoned[11], "public", 0)
        with Engine(helpers=1) as engine, use_engine(engine):
            assert 9 * len(batch) + 30 >= MIN_MSM_POINTS
            assert batch_verify(batch)
            assert not batch_verify(poisoned)
            assert verify(*batch[0])
            assert engine.live_helpers() == 0
        assert batch_verify(batch)
        assert not batch_verify(poisoned)

