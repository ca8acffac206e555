"""On-chain Plonk verifier contract.

As the paper notes (Section VI-C2), proof verification can be delegated to
a contract with the verification key hardcoded into its bytecode — a
one-time deployment cost, then O(1) work per proof.  Our contract runs the
*real* Plonk verifier and meters the gas an EVM would charge for the same
group operations (the BN254 precompiles: ECADD, ECMUL, pairing check).
"""

from __future__ import annotations

from repro.chain.contract import Contract, external, view
from repro.plonk.batch import batch_verify
from repro.plonk.keys import VerifyingKey
from repro.plonk.proof import Proof
from repro.plonk.verifier import verify as plonk_verify


def _vk_code_bytes(vk: VerifyingKey) -> int:
    """Bytes the hardcoded key contributes to the deployed code."""
    return 9 * 64 + 2 * 128 + 64  # 9 G1 commitments, 2 G2 points, domain data


class PlonkVerifierContract(Contract):
    """A verifier for one circuit (one verification key)."""

    def __init__(self, vk: VerifyingKey):
        super().__init__()
        self._vk = vk
        # The key is a deploy-time constant, so it counts as code, not storage.
        self.extra_code_bytes = _vk_code_bytes(vk) + 4096  # + pairing library

    def _charge_verification_gas(self) -> None:
        """Meter the EVM precompile costs of one Plonk verification:
        19 ECMULs and 21 ECADDs for the proof's 21 terms (``W_zeta`` and
        ``[qC]`` carry scalar 1; the cubic selector q3 is one of each) —
        20 and 22 when the key links a commitment, whose term is one more
        — one 2-pair pairing check, and transcript hashing."""
        s = self.schedule
        links = self._vk.links
        gas = (19 + links) * s.ecmul + (21 + links) * s.ecadd + s.pairing_cost(2)
        gas += 15 * (s.sha_base + 2 * s.sha_per_word)  # Fiat-Shamir hashing
        self._ctx.burn(gas)

    @external
    def verify(self, public_inputs: tuple, proof_bytes: bytes, link=None) -> bool:
        """Verify a proof on chain, against the commitment ``link`` when
        the key links one; reverts on malformed input."""
        try:
            proof = Proof.from_bytes(proof_bytes)
        except Exception as exc:
            self.require(False, "malformed proof: %s" % exc)
        self._charge_verification_gas()
        ok = plonk_verify(self._vk, [int(p) for p in public_inputs], proof, link)
        self.emit("ProofVerified", ok=ok, num_public_inputs=len(public_inputs))
        return ok

    def _charge_batch_verification_gas(self, k: int, links: int = 0) -> None:
        """Meter the precompile costs of a k-proof batched verification.

        The fold (:func:`repro.plonk.verifier.fold_check`) weights the
        terms of all k members in F_r and multiplies once.  A member
        contributes 11 points of its own — ``W_zeta`` and ``W_zeta_omega``
        on both sides of the equation, its other seven commitments once —
        while the nine commitments of this contract's one key and the
        generator are shared, their k scalars summed before the
        multiplication (~10 MULMOD/ADDMOD a member: field work, which this
        model prices nowhere).  A linked commitment is shared the same way:
        ``links`` distinct points add one term each, however many members
        name them.  That is 11k + 10 + links terms, an ECMUL and an ECADD
        each, plus each member's Fiat-Shamir hashing and one 2-pair
        pairing check for the whole batch.  The first member's two unit
        scalars are not discounted (k = 1 pays 21 ECMULs where
        :meth:`verify` pays 19): the charge stays a function of k and links.
        """
        s = self.schedule
        terms = 11 * k + 10 + links
        hashing = 15 * (s.sha_base + 2 * s.sha_per_word)
        self._ctx.burn(terms * (s.ecmul + s.ecadd) + k * hashing + s.pairing_cost(2))

    @external
    def verify_batch(self, items: tuple) -> tuple:
        """Verify many ``(public_inputs, proof_bytes)`` pairs at once, each
        with its linked commitment as a third element when the key links
        one (members naming one point object share its term).

        The happy path folds every well-formed member through the
        random-linear-combination batch verifier — two MSMs and one
        pairing check for the whole batch.  If the fold fails (at least
        one member is invalid), the batch falls back to individually
        metered per-proof verification so a single poisoned proof cannot
        poison its batchmates: honest members still settle, and the
        submitter pays the re-check gas.  Malformed proof bytes never
        revert the batch; they are reported False in place.
        """
        parsed: list = []
        for public_inputs, proof_bytes, *link in items:
            try:
                proof = Proof.from_bytes(proof_bytes)
            except Exception:
                parsed.append(None)
                continue
            parsed.append(([int(p) for p in public_inputs], proof, *link))
        links = {id(item[2]) for item in parsed if item is not None and len(item) > 2}
        self._charge_batch_verification_gas(len(parsed), len(links))
        results = [False] * len(parsed)
        well_formed = [i for i, item in enumerate(parsed) if item is not None]
        folded = [(self._vk, *parsed[i]) for i in well_formed]
        if folded and batch_verify(folded):
            for i in well_formed:
                results[i] = True
        else:
            for i in well_formed:
                self._charge_verification_gas()
                results[i] = plonk_verify(self._vk, *parsed[i])
        self.emit(
            "BatchVerified",
            batch_size=len(parsed),
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
