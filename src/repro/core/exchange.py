"""The key-secure two-phase data exchange protocol (Section IV-F).

Phase 1 (data validation): the seller sends ([d], pi_p) where pi_p proves
phi(D) = 1, D_hat = Enc(k, D), that D is the message under the data's
KZG point [d] and k the scalar under the key's [k]; the buyer verifies, picks a
fresh k_v, sends it to the seller off-chain, and locks payment on the
arbiter together with h_v = H(k_v) and the digest of the [k] it checked.

Phase 2 (key negotiation): the seller forms the masked key k_c = k + k_v
and proves, in pi_k, that k is the scalar under [k], h_v = H(k_v) and
k_c = k + k_v.  Both proofs link the key to the same [k] (DESIGN.md, "The
linked commitments"), so the key that settles is the key that decrypts.  The
arbiter releases payment iff [k] matches the locked digest and pi_k
verifies; the buyer recovers k = k_c - k_v and decrypts.  The chain never
sees k — the property ZKCP lacks (Challenge 3).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro import telemetry
from repro.telemetry import ledger as _ledger
from repro.errors import ProtocolError
from repro.contracts.arbiter import key_digest
from repro.curve.g1 import G1
from repro.faults.retry import ExchangeSteps, RetryPolicy
from repro.field.fr import MODULUS as R, random_scalar
from repro.gadgets.poseidon import poseidon_hash_gadget
from repro.plonk.circuit import CircuitBuilder
from repro.plonk.proof import Proof
from repro.plonk.prover import prove
from repro.primitives.hashing import field_hash
from repro.primitives.mimc import mimc_decrypt_ctr
from repro.core.snark import SnarkContext
from repro.core.tokens import DataAsset, PublicAssetView
from repro.core.transform_protocol import (
    EncryptionProof,
    prove_encryption,
    verify_encryption,
)


def build_key_negotiation_circuit(
    builder: CircuitBuilder,
    k_c: int,
    c_k: G1 | int,
    h_v: int,
    key: int,
    o_k: int,
    k_v: int,
) -> None:
    """The pi_k relation: k under [k] /\\ h_v = H(k_v) /\\ k_c = k + k_v.

    ``c_k`` is the key's KZG point [k] and ``o_k`` its blinder rho: the key
    wire is linked to it, not opened (a placeholder ``c_k`` suffices for a
    structure-only build).  The public inputs are (k_c, h_v)."""
    k_c_wire = builder.public_input(k_c)
    h_v_wire = builder.public_input(h_v)
    key_wire = builder.var(key)
    k_v_wire = builder.var(k_v)
    builder.link(key_wire, c_k, o_k)
    h_wire = poseidon_hash_gadget(builder, [k_v_wire])
    builder.assert_equal(h_wire, h_v_wire)
    masked = builder.add(key_wire, k_v_wire)
    builder.assert_equal(masked, k_c_wire)


def key_negotiation_proof(
    ctx: SnarkContext, key: int, o_k: int, c_k: G1, k_v: int, h_v: int
) -> tuple[int, Proof]:
    """Check the buyer's h_v, then prove pi_k for the key ``key`` under
    ``c_k`` = [k] with blinder ``o_k``, masked with ``k_v``: ``(k_c, pi_k)``.

    Per the seller-fairness proof, S aborts when the locked h_v does not
    match the k_v she received off-chain.  The seller proves here, and so
    does the prover pool's worker."""
    if field_hash(k_v) != h_v:
        raise ProtocolError("buyer's h_v does not match the received k_v; aborting")
    k_c = (key + k_v) % R
    builder = CircuitBuilder()
    build_key_negotiation_circuit(builder, k_c, c_k, h_v, key, o_k, k_v)
    layout, assignment = builder.compile(check=False)  # prove() checks the witness
    return k_c, prove(ctx.keys_for(layout).pk, assignment)


def key_negotiation_keys(ctx: SnarkContext):
    """(Cached) circuit keys for pi_k — shape-independent of the data."""
    builder = CircuitBuilder()
    build_key_negotiation_circuit(builder, 0, 0, 0, 0, 0, 0)
    layout, _ = builder.compile(check=False)
    return ctx.keys_for(layout)


class Seller:
    """The seller S, initialised by (D, k, D_hat, phi)."""

    def __init__(self, ctx: SnarkContext, asset: DataAsset, address: str):
        if asset.uri is None:
            raise ProtocolError("publish the asset to storage before selling")
        self.ctx = ctx
        self.asset = asset
        self.address = address
        self.key_commitment = asset.key_commitment(ctx.srs)
        # The owner commits the data once: buyers' views carry this [d].
        self.data_commitment = asset.data_commitment(ctx.srs)

    def data_validation_message(self, predicate=None) -> tuple[G1, EncryptionProof]:
        """Phase 1: produce ([d], pi_p)."""
        pi_p = prove_encryption(self.ctx, self.asset, predicate=predicate)
        return pi_p.data_commitment, pi_p

    def key_negotiation_message(self, k_v: int, h_v_on_chain: int):
        """Phase 2: check the buyer's h_v, then produce (k_c, pi_k)
        (:func:`key_negotiation_proof`)."""
        return key_negotiation_proof(
            self.ctx, self.asset.key, self.asset.key_blinder, self.key_commitment,
            k_v, h_v_on_chain,
        )


class Buyer:
    """The buyer B, initialised by (D_hat, phi)."""

    def __init__(self, ctx: SnarkContext, view: PublicAssetView, address: str):
        self.ctx = ctx
        self.view = view
        self.address = address
        self.k_v: int | None = None

    def verify_data(self, c_d: G1, pi_p: EncryptionProof, predicate=None) -> bool:
        """Phase 1 verification of ([d], pi_p)."""
        if c_d != self.view.data_commitment:
            return False
        return verify_encryption(self.ctx, self.view, pi_p, predicate=predicate)

    def choose_verification_key(self) -> tuple[int, int]:
        """Pick k_v at random; returns (k_v, h_v)."""
        # k_v = 0 would make the published k_c equal the data key itself.
        self.k_v = random_scalar(nonzero=True)
        return self.k_v, field_hash(self.k_v)

    def recover_plaintext(self, k_c: int) -> list[int]:
        """Derive k = k_c - k_v and decrypt the public ciphertext."""
        if self.k_v is None:
            raise ProtocolError("no k_v chosen yet")
        key = (k_c - self.k_v) % R
        return mimc_decrypt_ctr(key, self.view.ciphertext)


@dataclass
class Outcome:
    """How one exchange ended — the fields every driver's result shares."""

    success: bool
    plaintext: list | None
    reason: str
    gas_used: int = 0
    #: True when the run terminated through the abort path: no key
    #: material reached the chain and, if payment was ever locked, the
    #: buyer was refunded.  ``success`` and ``aborted`` are mutually
    #: exclusive; a run that ends with neither is a plain rejection.
    aborted: bool = False


@dataclass
class ExchangeResult(Outcome):
    exchange_id: int | None = None


class KeySecureExchange:
    """Orchestrates one exchange between a Seller and a Buyer on chain.

    Every fallible step — the off-chain message channels, every
    transaction and the pi_k prover — runs through one
    :class:`~repro.faults.retry.ExchangeSteps` under ``retry`` (bounded
    exponential backoff with deterministic jitter).  When a step fails
    for good the run *aborts into a safe state*: the seller never reveals
    key material, any locked payment is refunded to the buyer, and token
    ownership is untouched.  ``tests/exchange_invariants.py`` states
    these invariants once; the fault suite checks them on every edge.
    """

    def __init__(self, ctx: SnarkContext, chain, arbiter, retry: RetryPolicy | None = None):
        self.ctx = ctx
        self.chain = chain
        self.arbiter = arbiter
        self.retry = retry if retry is not None else RetryPolicy()

    def run(
        self,
        seller: Seller,
        buyer: Buyer,
        price: int,
        predicate=None,
        tamper_k_c: bool = False,
        tamper_k_v: bool = False,
    ) -> ExchangeResult:
        """Execute both phases; the tamper flags inject malicious behaviour
        (used by the fairness tests and the security benchmarks).

        Under ``REPRO_TELEMETRY=on`` the run emits an ``exchange.run``
        span with one child per protocol step — prove/verify (phase 1),
        commit (payment lock), prove/reveal (phase 2 key submission) and
        settle — each chain step carrying its transaction's gas and
        emitted event names as attributes.  With ``REPRO_LEDGER=<path>``
        set (which switches telemetry on), each run also appends one
        record to the run ledger: the span tree, the run's metric deltas
        and any injected faults (see :mod:`repro.telemetry.ledger`).  A run that raises — the
        phase-1 prover, an unlandable refund — still writes its record,
        with the error, before the exception propagates.
        """
        with _ledger.begin("exchange.keysecure") as recorder, telemetry.span(
            "exchange.run", price=price
        ) as root:
            recorder.update(span=root, price=price)
            result = self._run_steps(
                seller, buyer, price, predicate, tamper_k_c, tamper_k_v
            )
            root.set_attrs(
                success=result.success,
                reason=result.reason,
                gas_total=result.gas_used,
                aborted=result.aborted,
            )
            recorder.update(
                success=result.success,
                reason=result.reason,
                gas_used=result.gas_used,
                aborted=result.aborted,
            )
        return result

    def _run_steps(
        self, seller, buyer, price, predicate, tamper_k_c, tamper_k_v
    ) -> ExchangeResult:
        steps = ExchangeSteps(self.chain, "keysecure", self.retry)
        exchange_id = None
        # ----- Phase 1: data validation ---------------------------------
        with telemetry.span("exchange.prove", phase=1, proof="pi_p"):
            c_d, pi_p = seller.data_validation_message(predicate=predicate)
        try:
            # A lost (c_d, pi_p) is re-sent; the proof is computed once, above.
            steps.send("exchange.msg.validation", "phase-1 message")
            with telemetry.span("exchange.verify", phase=1, proof="pi_p") as sp:
                ok = buyer.verify_data(c_d, pi_p, predicate=predicate)
                sp.set_attr("ok", ok)
            if not ok:
                return ExchangeResult(False, None, "pi_p rejected by buyer", steps.gas)
            k_v, h_v = buyer.choose_verification_key()
            if tamper_k_v:
                k_v = (k_v + 1) % R  # buyer lies to the seller off-chain
            steps.send("exchange.msg.key", "k_v")
            receipt = steps.tx(
                buyer.address, self.arbiter, "lock_payment",
                seller.address, key_digest(pi_p.key_commitment.to_bytes()), h_v,
                value=price, site="chain.lock_payment", noun="payment lock",
                span=telemetry.span("exchange.commit", phase=1),
            )
            if not receipt.status:
                return ExchangeResult(False, None, "payment lock failed", steps.gas)
            exchange_id = receipt.return_value
            steps.hold(
                buyer.address, self.arbiter, "refund", exchange_id,
                site="chain.refund", noun="buyer refund for exchange %s" % exchange_id,
                span=telemetry.span("exchange.abort", exchange_id=exchange_id),
            )

            # ----- Phase 2: key negotiation -----------------------------
            info = self.chain.call_view(self.arbiter, "exchange_info", exchange_id)
            with steps.step("prover", telemetry.span("exchange.prove", phase=2, proof="pi_k")):
                k_c, pi_k = seller.key_negotiation_message(k_v, info[3])
            if tamper_k_c:
                k_c = (k_c + 1) % R
            steps.send("exchange.msg.negotiation", "phase-2 message")
            steps.tx(
                seller.address, self.arbiter, "submit_key",
                exchange_id, k_c, pi_k.to_bytes(), seller.key_commitment.to_bytes(),
                site="chain.submit_key", noun="key submission",
                span=telemetry.span("exchange.reveal", phase=2), fatal="pi_k rejected on chain",
            )
            steps.release()
            with telemetry.span("exchange.settle", phase=2):
                masked = self.chain.call_view(self.arbiter, "masked_key", exchange_id)
                plaintext = buyer.recover_plaintext(masked)
            return ExchangeResult(True, plaintext, "ok", steps.gas, exchange_id=exchange_id)
        except Exception as exc:
            reason = steps.abort(exc)
            return ExchangeResult(
                False, None, reason, steps.gas, aborted=True, exchange_id=exchange_id
            )
