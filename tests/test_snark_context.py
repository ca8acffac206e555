"""Tests for the shared SNARK context and on-chain verifier contract."""

import dataclasses

import pytest

from repro.backend import Engine
from repro.chain import Blockchain
from repro.chain.contract import ExecutionContext
from repro.contracts import PlonkVerifierContract
from repro.core.exchange import key_negotiation_keys
from repro.core.tokens import DataAsset
from repro.core.transform_protocol import build_encryption_circuit, prove_encryption
from repro.errors import SRSError
from repro.core.snark import SnarkContext
from repro.curve.g1 import G1
from repro.field.fr import MODULUS as R
from repro.plonk import CircuitBuilder, prove


def _toy_layout(value=3):
    builder = CircuitBuilder()
    x = builder.public_input(value * value)
    w = builder.var(value)
    builder.assert_equal(builder.mul(w, w), x)
    return builder.compile()


class TestSnarkContext:
    def test_keys_are_cached_per_layout(self):
        ctx = SnarkContext.with_fresh_srs(32, tau=777)
        layout, _ = _toy_layout()
        k1 = ctx.keys_for(layout)
        k2 = ctx.keys_for(layout)
        assert k1 is k2
        assert ctx.cached_circuits == 1
        # A different witness, same structure: still one cache entry.
        layout2, _ = _toy_layout(value=5)
        ctx.keys_for(layout2)
        assert ctx.cached_circuits == 1

    def test_oversized_circuit_rejected_with_guidance(self):
        ctx = SnarkContext.with_fresh_srs(16, tau=777)
        builder = CircuitBuilder()
        x = builder.var(1)
        for _ in range(40):
            x = builder.mul(x, x)
        layout, _ = builder.compile()
        with pytest.raises(SRSError, match="larger ceremony"):
            ctx.keys_for(layout)


@pytest.mark.slow
class TestVerifierContract:
    def test_on_chain_verification(self, snark_ctx):
        layout, assignment = _toy_layout()
        keys = snark_ctx.keys_for(layout)
        proof = prove(keys.pk, assignment)

        chain = Blockchain()
        operator = chain.create_account(funded=10**12)
        contract = PlonkVerifierContract(keys.vk)
        deploy = chain.deploy(contract, operator)
        assert deploy.gas_used > 1_000_000  # hardcoded vk + pairing lib

        receipt = chain.transact(
            operator, contract, "verify", tuple(assignment.public_inputs), proof.to_bytes()
        )
        assert receipt.status and receipt.return_value is True
        # Verification gas is dominated by the pairing precompile.
        assert receipt.gas_used > 113_000

        bad = chain.transact(operator, contract, "verify", (12345,), proof.to_bytes())
        assert bad.status and bad.return_value is False

        revert = chain.transact(
            operator, contract, "require_valid", (12345,), proof.to_bytes()
        )
        assert not revert.status

        malformed = chain.transact(operator, contract, "verify", (), b"junk")
        assert not malformed.status

        # Free off-chain verification via the view ("unlimited free
        # verifications", Section VI-C2).
        assert chain.call_view(
            contract, "verify_view", tuple(assignment.public_inputs), proof.to_bytes()
        )
        assert chain.call_view(contract, "circuit_size") == keys.vk.n

    def _deployed(self, snark_ctx):
        layout, assignment = _toy_layout()
        keys = snark_ctx.keys_for(layout)
        chain = Blockchain()
        operator = chain.create_account(funded=10**12)
        contract = PlonkVerifierContract(keys.vk)
        chain.deploy(contract, operator)
        member = (tuple(assignment.public_inputs), prove(keys.pk, assignment).to_bytes())
        return chain, operator, contract, member

    def test_batch_charge_is_the_folds_term_count(self, snark_ctx):
        """(11k + 9) ECMUL + ECADD, k hashings, one 2-pair check: the toy
        key has no cubic row, so its [q3] is the identity the fold leaves
        out."""
        chain, operator, contract, _member = self._deployed(snark_ctx)
        s = chain.schedule
        hashing = 15 * (s.sha_base + 2 * s.sha_per_word)

        def charged(k):
            contract._ctx = ExecutionContext(chain, operator, 0, gas_limit=10**9)
            try:
                contract._charge_fold_gas([(contract._vk,)] * k, 0)
                return contract._ctx.gas_used
            finally:
                contract._ctx = None

        for k in (1, 2, 8, 64):
            assert charged(k) == (
                (11 * k + 9) * (s.ecmul + s.ecadd) + k * hashing + s.pairing_cost(2)
            )
        # Against the evaluate-then-fold verifier's k * (21 ECMUL + 23
        # ECADD): a batch of one moves by two ECADDs and the skipped [q3],
        # a batch of eight drops 54.9k gas a member.
        def before(k):
            return k * (21 * s.ecmul + 23 * s.ecadd + hashing) + s.pairing_cost(2)

        assert before(1) - charged(1) == 2 * s.ecadd + s.ecmul + s.ecadd
        assert (before(8) - charged(8)) // 8 == 54_881

    def test_failed_fold_still_charges_every_recheck(self, snark_ctx):
        chain, operator, contract, (publics, proof_bytes) = self._deployed(snark_ctx)
        s = chain.schedule
        single = (
            18 * s.ecmul + 20 * s.ecadd + s.pairing_cost(2)
            + 15 * (s.sha_base + 2 * s.sha_per_word)
        )
        clean = chain.transact(operator, contract, "verify_batch", ((publics, proof_bytes),) * 4)
        assert clean.status and clean.return_value == (True,) * 4
        # Same calldata length and zero-byte profile: 9 -> 8 in one member.
        poisoned_member = ((publics[0] - 1,), proof_bytes)
        poisoned = chain.transact(
            operator, contract, "verify_batch",
            ((publics, proof_bytes),) * 3 + (poisoned_member,),
        )
        assert poisoned.status and poisoned.return_value == (True, True, True, False)
        assert poisoned.gas_used - clean.gas_used == 4 * single

    def test_public_input_aliases_are_refused_on_chain(self, snark_ctx):
        chain, operator, contract, (publics, proof_bytes) = self._deployed(snark_ctx)
        for alias in (publics[0] + R, publics[0] - R):
            receipt = chain.transact(operator, contract, "verify", (alias,), proof_bytes)
            assert receipt.status and receipt.return_value is False
            batch = chain.transact(
                operator,
                contract,
                "verify_batch",
                ((publics, proof_bytes), ((alias,), proof_bytes)),
            )
            assert batch.status and batch.return_value == (True, False)


def _charge_cases(snark_ctx, pik_bundles, case):
    """The key and the ``(public_inputs, proof_bytes, link)`` members of
    one case: two pi_k sharing [k], one 1-entry pi_e, or two 1-entry pi_e
    under one key, sharing the one [k] object."""
    srs = snark_ctx.srs
    if case == "pi_k":
        asset, bundles = pik_bundles
        key = asset.key_commitment(srs)
        members = [
            ((b.masked_key, b.verification_hash), b.proof_bytes, key) for b in bundles[:2]
        ]
        return key_negotiation_keys(snark_ctx).vk, members
    first = DataAsset.create([5])
    assets = [first]
    if case == "pi_e_pair":
        other = DataAsset.create([6], key=first.key)
        assets.append(dataclasses.replace(other, key_blinder=first.key_blinder))
    members = []
    for asset in assets:
        pi_e = prove_encryption(snark_ctx, asset)
        # The first asset's [k] object in every member.
        links = (first.key_commitment(srs), pi_e.data_commitment)
        members.append((tuple(pi_e.public_inputs), pi_e.proof.to_bytes(), links))
    keys = snark_ctx.keys_for_shape(
        ("pi_e", 1, None),
        lambda b: build_encryption_circuit(b, [0], 0, 0, 0, [0], 0, 0, 0),
    )
    return keys.vk, members


@pytest.mark.slow
@pytest.mark.parametrize("case", ["pi_k", "pi_e", "pi_e_pair"])
def test_the_charge_is_the_fold(snark_ctx, pik_bundles, monkeypatch, case):
    """``verify`` pays an ECADD per term the fold multiplies and an ECMUL
    per term whose scalar is not 1; ``verify_batch`` an ECMUL and an ECADD
    per term (a batch discounts no unit scalar).  Read from the one charge
    a transaction burns at or above the pairing's price, against the
    kernel's own arguments."""
    vk, members = _charge_cases(snark_ctx, pik_bundles, case)
    chain = Blockchain()
    operator = chain.create_account(funded=10**12)
    s = chain.schedule
    hashing = 15 * (s.sha_base + 2 * s.sha_per_word)
    contract = PlonkVerifierContract(vk)
    deploy = chain.deploy(contract, operator)

    folds, charges = [], []
    fold, burn = Engine.fold_pairing_check, ExecutionContext.burn

    def spy_fold(engine, tau_side, one_side, g2_tau, g2):
        terms = tau_side + one_side
        folds.append((len(terms), sum(1 for _, scalar in terms if scalar % R != 1)))
        return fold(engine, tau_side, one_side, g2_tau, g2)

    def spy_burn(ctx, amount):
        if amount >= s.pairing_cost(2):
            charges.append(amount)
        return burn(ctx, amount)

    monkeypatch.setattr(Engine, "fold_pairing_check", spy_fold)
    monkeypatch.setattr(ExecutionContext, "burn", spy_burn)

    def charged(k):
        """(ECMUL, ECADD) of the one charge, k members' hashing taken off."""
        (amount,) = charges
        charges.clear()
        ops = amount - k * hashing - s.pairing_cost(2)
        ecmul, rest = divmod(ops, s.ecmul + s.ecadd)
        assert rest % s.ecadd == 0
        return ecmul, ecmul + rest // s.ecadd

    single = chain.transact(operator, contract, "verify", *members[0])
    assert single.status and single.return_value is True
    (terms, non_unit), = folds
    assert charged(1) == (non_unit, terms)

    folds.clear()
    batch = chain.transact(operator, contract, "verify_batch", tuple(members))
    assert batch.status and batch.return_value == (True,) * len(members)
    (terms, _non_unit), = folds
    assert charged(len(members)) == (terms, terms)

    # Each G1 point a key hardcodes is 64 code bytes: pi_e's [qround]
    # against pi_k's [qnext] and [qpartial].
    pik_vk = key_negotiation_keys(snark_ctx).vk
    pik_deploy = chain.deploy(PlonkVerifierContract(pik_vk), operator)

    def points(key):
        return sum(isinstance(getattr(key, f.name), G1) for f in dataclasses.fields(key))

    assert (points(vk), points(pik_vk)) == ((10 if vk.shifted == (0,) else 11), 11)
    assert deploy.gas_used - pik_deploy.gas_used == 12_800 * (points(vk) - points(pik_vk))
