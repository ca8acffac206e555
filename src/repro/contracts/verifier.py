"""On-chain Plonk verifier contract.

As the paper notes (Section VI-C2), proof verification can be delegated to
a contract with the verification key hardcoded into its bytecode — a
one-time deployment cost, then O(1) work per proof.  Our contract runs the
*real* Plonk verifier and meters the gas an EVM would charge for the same
group operations (the BN254 precompiles: ECADD, ECMUL, pairing check).
"""

from __future__ import annotations

from dataclasses import fields

from repro.chain.contract import Contract, external, view
from repro.curve.g1 import G1
from repro.plonk.batch import batch_verify
from repro.plonk.keys import VerifyingKey
from repro.plonk.proof import Proof
from repro.plonk.verifier import UNIT_TERMS, fold_terms
from repro.plonk.verifier import verify as plonk_verify


def _vk_code_bytes(vk: VerifyingKey) -> int:
    """Bytes the hardcoded key contributes to the deployed code: its G1
    commitments (nine, ten with round gates), 2 G2 points, domain data."""
    g1 = sum(isinstance(getattr(vk, f.name), G1) for f in fields(vk))
    return g1 * 64 + 2 * 128 + 64


class PlonkVerifierContract(Contract):
    """A verifier for one circuit (one verification key)."""

    def __init__(self, vk: VerifyingKey):
        super().__init__()
        self._vk = vk
        # The key is a deploy-time constant, so it counts as code, not storage.
        self.extra_code_bytes = _vk_code_bytes(vk) + 4096  # + pairing library

    def _charge_fold_gas(self, members: list, unit_terms: int) -> None:
        """Meter the EVM precompile costs of folding ``members`` (in
        :func:`~repro.plonk.verifier.fold_check`'s shape): an ECADD per
        term of the fold (:func:`~repro.plonk.verifier.fold_terms`) and an
        ECMUL per term less the ``unit_terms`` whose scalar is 1, each
        member's Fiat-Shamir hashing, and one 2-pair pairing check.  The
        key's and the links' scalars are summed across members in F_r
        (~10 MULMOD/ADDMOD a member: field work, which this model prices
        nowhere)."""
        s = self.schedule
        terms = fold_terms(members)
        hashing = 15 * (s.sha_base + 2 * s.sha_per_word)
        self._ctx.burn(
            (terms - unit_terms) * s.ecmul
            + terms * s.ecadd
            + len(members) * hashing
            + s.pairing_cost(2)
        )

    @external
    def verify(self, public_inputs: tuple, proof_bytes: bytes, link=None) -> bool:
        """Verify a proof on chain, against the commitment ``link`` when
        the key links one; reverts on malformed input."""
        try:
            proof = Proof.from_bytes(proof_bytes)
        except Exception as exc:
            self.require(False, "malformed proof: %s" % exc)
        member = (self._vk, [int(p) for p in public_inputs], proof, link)
        self._charge_fold_gas([member], UNIT_TERMS)
        ok = plonk_verify(*member)
        self.emit("ProofVerified", ok=ok, num_public_inputs=len(public_inputs))
        return ok

    @external
    def verify_batch(self, items: tuple) -> tuple:
        """Verify many ``(public_inputs, proof_bytes)`` pairs at once, each
        with its linked commitment as a third element when the key links
        one (members naming one point object share its term).

        The happy path folds every well-formed member through the
        random-linear-combination batch verifier — two MSMs and one
        pairing check for the whole batch — and is charged for the fold
        of every member, a malformed one included, with no unit scalar
        discounted: the charge stays a function of the batch's size and
        links.  If the fold fails (at least one member is invalid), the
        batch falls back to individually metered per-proof verification so
        a single poisoned proof cannot poison its batchmates: honest
        members still settle, and the submitter pays the re-check gas.
        Malformed proof bytes never revert the batch; they are reported
        False in place.
        """
        members: list = []
        for public_inputs, proof_bytes, *link in items:
            try:
                proof = Proof.from_bytes(proof_bytes)
            except Exception:
                members.append(None)
                continue
            members.append((self._vk, [int(p) for p in public_inputs], proof, *link))
        self._charge_fold_gas([member or (self._vk,) for member in members], 0)
        results = [False] * len(members)
        well_formed = [i for i, member in enumerate(members) if member is not None]
        if well_formed and batch_verify([members[i] for i in well_formed]):
            for i in well_formed:
                results[i] = True
        else:
            for i in well_formed:
                self._charge_fold_gas([members[i]], UNIT_TERMS)
                results[i] = plonk_verify(*members[i])
        self.emit(
            "BatchVerified",
            batch_size=len(members),
            accepted=sum(1 for ok in results if ok),
        )
        return tuple(results)

    @external
    def require_valid(self, public_inputs: tuple, proof_bytes: bytes, link=None) -> None:
        """Verify and revert the whole transaction on failure."""
        ok = self.verify(public_inputs, proof_bytes, link)
        self.require(ok, "invalid proof")

    @view
    def verify_view(self, public_inputs: tuple, proof_bytes: bytes, link=None) -> bool:
        """Free off-chain verification via eth_call — the 'unlimited free
        verifications' of Section VI-C2."""
        proof = Proof.from_bytes(proof_bytes)
        return plonk_verify(self._vk, [int(p) for p in public_inputs], proof, link)

    @view
    def circuit_size(self) -> int:
        return self._vk.n
