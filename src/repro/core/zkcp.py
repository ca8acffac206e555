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

from repro import faults, telemetry
from repro.errors import DeadlineExceededError, RetryExhaustedError
from repro.faults.retry import RetryPolicy, must_land
from repro.gadgets.mimc import assert_ctr_encryption
from repro.gadgets.poseidon import poseidon_hash_gadget
from repro.groth16 import groth16_prove, groth16_setup, groth16_verify
from repro.primitives.hashing import field_hash
from repro.primitives.mimc import mimc_decrypt_ctr
from repro.r1cs import R1CSBuilder
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
class ZKCPResult:
    success: bool
    plaintext: list | None
    reason: str
    gas_used: int
    leaked_key: int | None = None  # what a third party can read afterwards
    aborted: bool = False


class ZKCPExchange:
    """Orchestrates the four ZKCP steps against the hash-lock arbiter.

    Like :class:`repro.core.exchange.KeySecureExchange`, every message
    channel and transaction runs under a :class:`repro.faults.RetryPolicy`
    and a persistent failure aborts into a safe state (escrow refunded,
    key unrevealed).
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
        gas = 0
        view = asset.public_view()
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
        try:
            self.retry.run(
                lambda: faults.check("exchange.msg.deliver"), site="exchange.msg.deliver"
            )
        except (RetryExhaustedError, DeadlineExceededError) as exc:
            return self._aborted(gas, "deliver message undeliverable: %s" % exc)
        publics = list(asset.ciphertext.blocks) + [asset.ciphertext.nonce, key_hash]
        with telemetry.span("zkcp.verify", step="verify") as sp:
            ok = groth16_verify(vk, publics, proof)
            sp.set_attr("ok", ok)
        if not ok:
            return ZKCPResult(False, None, "pi_p rejected by buyer", gas)
        with telemetry.span("zkcp.commit", step="lock") as sp:
            try:
                receipt = self.retry.run(
                    lambda: self.chain.transact(
                        buyer_address, self.arbiter, "lock", seller_address,
                        key_hash, value=price,
                    ),
                    site="chain.lock",
                )
            except (RetryExhaustedError, DeadlineExceededError) as exc:
                sp.set_attr("aborted", True)
                return self._aborted(gas, "payment lock undeliverable: %s" % exc)
            sp.set_attrs(receipt.span_attrs())
        gas += receipt.gas_used
        if not receipt.status:
            return ZKCPResult(False, None, "payment lock failed", gas)
        deal_id = receipt.return_value

        # ----- Open: seller discloses k ON CHAIN --------------------------
        key = (asset.key + 1) if tamper_key else asset.key
        with telemetry.span("zkcp.reveal", step="open") as sp:
            try:
                receipt = self.retry.run(
                    lambda: self.chain.transact(
                        seller_address, self.arbiter, "open", deal_id, key
                    ),
                    site="chain.open",
                )
            except (RetryExhaustedError, DeadlineExceededError) as exc:
                sp.set_attr("aborted", True)
                return self._abort_and_refund(
                    buyer_address, deal_id, gas, "open undeliverable: %s" % exc
                )
            sp.set_attrs(receipt.span_attrs())
        gas += receipt.gas_used
        if not receipt.status:
            return self._abort_and_refund(
                buyer_address, deal_id, gas, "open rejected: %s" % receipt.error
            )

        # ----- Finalize: buyer decrypts — but so can anyone ---------------
        with telemetry.span("zkcp.settle", step="finalize"):
            revealed = self.chain.call_view(self.arbiter, "revealed_key", deal_id)
            plaintext = mimc_decrypt_ctr(revealed, view.ciphertext)
        return ZKCPResult(True, plaintext, "ok", gas, leaked_key=revealed)

    # ----- abort machinery ----------------------------------------------

    def _aborted(self, gas: int, reason: str) -> ZKCPResult:
        if telemetry.metrics_enabled():
            telemetry.counter("exchange.aborted", protocol="zkcp").inc()
        return ZKCPResult(False, None, reason, gas, aborted=True)

    def _abort_and_refund(
        self, buyer_address: str, deal_id: int, gas: int, reason: str
    ) -> ZKCPResult:
        refund = must_land(
            self.chain, buyer_address, self.arbiter, "refund", deal_id,
            site="chain.refund", noun="buyer refund for deal %s" % deal_id,
        )
        return self._aborted(gas + refund.gas_used, reason)
