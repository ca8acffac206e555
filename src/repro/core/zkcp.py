"""The classic ZKCP protocol (Section III-C) — the baseline ZKDET fixes.

Built, as in the literature the paper cites, on Groth16: the seller proves

    phi(D) = 1 AND D_hat = Enc(k, D) AND h = H(k)

then reveals k to the arbiter contract in the *Open* phase.  The protocol
is fair, but once the hash lock opens, **k is public chain data**: since
D_hat sits in public storage, any third party decrypts D.  ZKDET's
key-secure protocol exists precisely to remove this step.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro import telemetry
from repro.faults.retry import ExchangeSteps, RetryPolicy
from repro.gadgets.mimc import assert_ctr_encryption
from repro.gadgets.poseidon import poseidon_hash_gadget
from repro.groth16 import groth16_prove, groth16_setup, groth16_verify
from repro.primitives.hashing import field_hash
from repro.primitives.mimc import mimc_decrypt_ctr
from repro.r1cs import R1CSBuilder
from repro.core.exchange import Outcome
from repro.core.tokens import DataAsset


def build_zkcp_circuit(
    builder: R1CSBuilder,
    ct_blocks: list[int],
    nonce: int,
    key_hash: int,
    plaintext: list[int],
    key: int,
    predicate=None,
) -> None:
    """The ZKCP pi_p relation as an R1CS (for Groth16).

    Reuses the same gadget library as the Plonk circuits — the builders
    share an interface — which keeps the two systems' relations identical
    for the Figure 7 comparison.
    """
    ct_wires = [builder.public_input(b) for b in ct_blocks]
    nonce_wire = builder.public_input(nonce)
    h_wire = builder.public_input(key_hash)
    pt_wires = [builder.var(p) for p in plaintext]
    key_wire = builder.var(key)
    assert_ctr_encryption(builder, key_wire, pt_wires, nonce_wire, ct_wires)
    computed_h = poseidon_hash_gadget(builder, [key_wire])
    builder.assert_equal(computed_h, h_wire)
    if predicate is not None:
        predicate(builder, pt_wires)


@dataclass
class ZKCPResult(Outcome):
    leaked_key: int | None = None  # what a third party can read afterwards


class ZKCPExchange:
    """Orchestrates the four ZKCP steps against the hash-lock arbiter.

    Like :class:`repro.core.exchange.KeySecureExchange`, every message
    channel and transaction runs through one
    :class:`~repro.faults.retry.ExchangeSteps` and a persistent failure
    aborts into a safe state (escrow refunded, key unrevealed).
    """

    def __init__(self, chain, arbiter, retry: RetryPolicy | None = None):
        self.chain = chain
        self.arbiter = arbiter
        self.retry = retry if retry is not None else RetryPolicy()
        self._key_cache: dict = {}

    def _keys_for(self, num_entries: int, predicate):
        cache_key = (num_entries, getattr(predicate, "__name__", None))
        if cache_key not in self._key_cache:
            builder = R1CSBuilder()
            build_zkcp_circuit(
                builder, [0] * num_entries, 0, 0, [0] * num_entries, 0, predicate=predicate
            )
            system, _ = builder.compile(check=False)
            self._key_cache[cache_key] = groth16_setup(system)
        return self._key_cache[cache_key]

    def run(
        self,
        seller_address: str,
        buyer_address: str,
        asset: DataAsset,
        price: int,
        predicate=None,
        tamper_key: bool = False,
    ) -> ZKCPResult:
        with telemetry.span("zkcp.run", price=price) as root:
            result = self._run_steps(
                seller_address, buyer_address, asset, price, predicate, tamper_key
            )
            root.set_attrs(
                success=result.success, reason=result.reason, gas_total=result.gas_used
            )
            return result

    def _run_steps(
        self, seller_address, buyer_address, asset, price, predicate, tamper_key
    ) -> ZKCPResult:
        key_hash = field_hash(asset.key)

        # ----- Deliver: seller proves and sends (h, pi_p) ----------------
        with telemetry.span("zkcp.prove", step="deliver"):
            builder = R1CSBuilder()
            build_zkcp_circuit(
                builder,
                list(asset.ciphertext.blocks),
                asset.ciphertext.nonce,
                key_hash,
                asset.plaintext,
                asset.key,
                predicate=predicate,
            )
            system, witness = builder.compile()
            pk, vk = self._keys_for(len(asset.plaintext), predicate)
            proof = groth16_prove(pk, witness)

        # ----- Verify: buyer checks pi_p, locks payment against h --------
        steps = ExchangeSteps(self.chain, "zkcp", self.retry)
        try:
            steps.send("exchange.msg.deliver", "deliver message")
            publics = list(asset.ciphertext.blocks) + [asset.ciphertext.nonce, key_hash]
            with telemetry.span("zkcp.verify", step="verify") as sp:
                ok = groth16_verify(vk, publics, proof)
                sp.set_attr("ok", ok)
            if not ok:
                return ZKCPResult(False, None, "pi_p rejected by buyer", steps.gas)
            receipt = steps.tx(
                buyer_address, self.arbiter, "lock", seller_address, key_hash,
                value=price, site="chain.lock", noun="payment lock",
                span=telemetry.span("zkcp.commit", step="lock"),
            )
            if not receipt.status:
                return ZKCPResult(False, None, "payment lock failed", steps.gas)
            deal_id = receipt.return_value
            steps.hold(
                buyer_address, self.arbiter, "refund", deal_id,
                site="chain.refund", noun="buyer refund for deal %s" % deal_id,
            )

            # ----- Open: seller discloses k ON CHAIN ----------------------
            key = (asset.key + 1) if tamper_key else asset.key
            steps.tx(
                seller_address, self.arbiter, "open", deal_id, key,
                site="chain.open", noun="open",
                span=telemetry.span("zkcp.reveal", step="open"), fatal="open rejected",
            )
            steps.release()

            # ----- Finalize: buyer decrypts — but so can anyone -----------
            with telemetry.span("zkcp.settle", step="finalize"):
                revealed = self.chain.call_view(self.arbiter, "revealed_key", deal_id)
                plaintext = mimc_decrypt_ctr(revealed, asset.ciphertext)
            return ZKCPResult(True, plaintext, "ok", steps.gas, leaked_key=revealed)
        except Exception as exc:
            reason = steps.abort(exc)
            return ZKCPResult(False, None, reason, steps.gas, aborted=True)
