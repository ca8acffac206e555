"""The FairSwap protocol driver (seller/buyer sides, off-chain logic).

Complements :class:`repro.contracts.fairswap.FairSwapContract` with the
off-chain machinery: block encryption, Merkle tree construction over the
plaintext and ciphertext, local re-verification after key reveal, and
complaint assembly when the seller cheated.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import DeadlineExceededError, ProtocolError, RetryExhaustedError
from repro.faults.retry import RetryPolicy, must_land
from repro import telemetry
from repro.field.fr import MODULUS as R, rand_fr
from repro.gadgets.merkle import MerkleTree
from repro.primitives.hashing import field_hash
from repro.primitives.mimc import MiMC


@dataclass
class FairSwapListing:
    """Seller-side state of one FairSwap sale."""

    blocks: list[int]
    key: int
    nonce: int
    cipher_blocks: list[int]
    plain_tree: MerkleTree
    cipher_tree: MerkleTree

    @staticmethod
    def create(blocks: list[int], key: int | None = None, nonce: int | None = None) -> "FairSwapListing":
        if not blocks:
            raise ProtocolError("a FairSwap listing needs at least one block")
        blocks = [b % R for b in blocks]
        key = rand_fr() if key is None else key % R
        nonce = rand_fr() if nonce is None else nonce % R
        cipher = MiMC()
        cipher_blocks = [
            (b + cipher.encrypt_block(key, (nonce + i) % R)) % R
            for i, b in enumerate(blocks)
        ]
        return FairSwapListing(
            blocks=blocks,
            key=key,
            nonce=nonce,
            cipher_blocks=cipher_blocks,
            plain_tree=MerkleTree(blocks),
            cipher_tree=MerkleTree(cipher_blocks),
        )

    def tamper_block(self, index: int) -> None:
        """Adversarial hook: corrupt one ciphertext block after committing
        the plaintext tree (the misbehaviour FairSwap disputes catch)."""
        self.cipher_blocks[index] = (self.cipher_blocks[index] + 1) % R
        self.cipher_tree = MerkleTree(self.cipher_blocks)


@dataclass
class FairSwapResult:
    success: bool
    plaintext: list | None
    reason: str
    gas_used: int
    dispute_gas: int = 0
    aborted: bool = False


class FairSwapExchange:
    """Orchestrates one FairSwap sale against the arbiter contract.

    Transactions run under ``retry``; if the seller's ``reveal_key``
    stays undeliverable past the policy budget, the driver waits out the
    reveal window and recovers the buyer's escrow through the contract's
    ``abort`` entry point.
    """

    def __init__(self, chain, contract, retry: RetryPolicy | None = None):
        self.chain = chain
        self.contract = contract
        self.retry = retry if retry is not None else RetryPolicy()

    def _tx(self, sender: str, method: str, *args, site: str, value: int = 0):
        return self.retry.run(
            lambda: self.chain.transact(
                sender, self.contract, method, *args, value=value
            ),
            site=site,
        )

    def run(
        self,
        seller: str,
        buyer: str,
        listing: FairSwapListing,
        price: int,
        cheat_block: int | None = None,
    ) -> FairSwapResult:
        """Execute offer -> accept -> reveal -> (complain | finalize).

        ``cheat_block`` makes the seller corrupt that ciphertext block
        before listing; the buyer then wins a dispute.
        """
        gas = 0
        if cheat_block is not None:
            listing.tamper_block(cheat_block)

        try:
            receipt = self._tx(
                seller, "offer",
                listing.cipher_tree.root, listing.plain_tree.root,
                field_hash(listing.key), listing.nonce,
                len(listing.blocks), price,
                site="chain.offer",
            )
        except (RetryExhaustedError, DeadlineExceededError) as exc:
            return self._aborted(gas, "offer undeliverable: %s" % exc)
        gas += receipt.gas_used
        sale_id = receipt.return_value

        try:
            receipt = self._tx(buyer, "accept", sale_id, site="chain.accept", value=price)
        except (RetryExhaustedError, DeadlineExceededError) as exc:
            return self._aborted(gas, "accept undeliverable: %s" % exc)
        gas += receipt.gas_used
        if not receipt.status:
            return FairSwapResult(False, None, "accept failed", gas)

        try:
            receipt = self._tx(
                seller, "reveal_key", sale_id, listing.key, site="chain.reveal"
            )
        except (RetryExhaustedError, DeadlineExceededError) as exc:
            return self._abort_after_accept(
                buyer, sale_id, gas, "reveal undeliverable: %s" % exc
            )
        gas += receipt.gas_used
        if not receipt.status:
            return self._abort_after_accept(
                buyer, sale_id, gas, "reveal rejected: %s" % receipt.error
            )

        # Buyer decrypts locally and checks every block against the
        # advertised plaintext root.
        key = self.chain.call_view(self.contract, "revealed_key", sale_id)
        cipher = MiMC()
        decrypted = [
            (c - cipher.encrypt_block(key, (listing.nonce + i) % R)) % R
            for i, c in enumerate(listing.cipher_blocks)
        ]
        bad_index = None
        for i, block in enumerate(decrypted):
            if not MerkleTree.verify(
                listing.plain_tree.root, block, listing.plain_tree.prove(i)
            ):
                bad_index = i
                break

        if bad_index is None:
            for _ in range(6):
                self.chain.seal_block()
            receipt = must_land(
                self.chain, seller, self.contract, "finalize", sale_id,
                site="chain.finalize", noun="finalize for sale %s" % sale_id,
            )
            return FairSwapResult(True, decrypted, "ok", gas + receipt.gas_used)

        # Dispute: assemble the proof of misbehaviour.  A lost complaint
        # strands the buyer's escrow, so it must land.
        c_proof = listing.cipher_tree.prove(bad_index)
        p_proof = listing.plain_tree.prove(bad_index)
        receipt = must_land(
            self.chain, buyer, self.contract, "complain", sale_id, bad_index,
            listing.cipher_blocks[bad_index],
            tuple(c_proof.siblings), tuple(c_proof.path_bits),
            listing.blocks[bad_index],
            tuple(p_proof.siblings), tuple(p_proof.path_bits),
            site="chain.complain", noun="complaint for sale %s" % sale_id,
        )
        return FairSwapResult(
            False, None, "seller cheated; buyer refunded", gas + receipt.gas_used,
            dispute_gas=receipt.gas_used,
        )

    # ----- abort machinery ----------------------------------------------

    def _aborted(self, gas: int, reason: str) -> FairSwapResult:
        if telemetry.metrics_enabled():
            telemetry.counter("exchange.aborted", protocol="fairswap").inc()
        return FairSwapResult(False, None, reason, gas, aborted=True)

    def _abort_after_accept(
        self, buyer: str, sale_id: int, gas: int, reason: str
    ) -> FairSwapResult:
        """Recover the buyer's escrow when the seller never reveals.

        Waits out the reveal window (the offers placed by this driver use
        the contract's default ``dispute_window`` of 5 blocks), then pulls
        the escrow back through the contract's ``abort`` entry point.
        """
        with telemetry.span("fairswap.abort", sale_id=sale_id):
            for _ in range(6):
                self.chain.seal_block()
            refund = must_land(
                self.chain, buyer, self.contract, "abort", sale_id,
                site="chain.abort", noun="buyer abort for sale %s" % sale_id,
            )
        return self._aborted(gas + refund.gas_used, reason)
