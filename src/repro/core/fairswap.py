"""The FairSwap protocol driver (seller/buyer sides, off-chain logic).

Complements :class:`repro.contracts.fairswap.FairSwapContract` with the
off-chain machinery: block encryption, Merkle tree construction over the
plaintext and ciphertext, local re-verification after key reveal, and
complaint assembly when the seller cheated.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.exchange import Outcome
from repro.errors import ProtocolError
from repro.faults.retry import ExchangeSteps, RetryPolicy, must_land
from repro import telemetry
from repro.field.fr import MODULUS as R, random_scalar
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
        key = random_scalar() if key is None else key % R
        nonce = random_scalar() if nonce is None else nonce % R
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
class FairSwapResult(Outcome):
    dispute_gas: int = 0


class FairSwapExchange:
    """Orchestrates one FairSwap sale against the arbiter contract.

    Transactions run through one :class:`~repro.faults.retry.ExchangeSteps`
    under ``retry``.  The buyer's escrow is refunded through the
    contract's ``abort`` entry point, which opens only once the reveal
    window has passed: if the seller's ``reveal_key`` stays undeliverable,
    the driver waits the window out first.
    """

    def __init__(self, chain, contract, retry: RetryPolicy | None = None):
        self.chain = chain
        self.contract = contract
        self.retry = retry if retry is not None else RetryPolicy()

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
        if cheat_block is not None:
            listing.tamper_block(cheat_block)
        steps = ExchangeSteps(self.chain, "fairswap", self.retry)
        try:
            receipt = steps.tx(
                seller, self.contract, "offer",
                listing.cipher_tree.root, listing.plain_tree.root,
                field_hash(listing.key), listing.nonce, len(listing.blocks), price,
                site="chain.offer", noun="offer",
            )
            sale_id = receipt.return_value
            receipt = steps.tx(
                buyer, self.contract, "accept", sale_id,
                value=price, site="chain.accept", noun="accept",
            )
            if not receipt.status:
                return FairSwapResult(False, None, "accept failed", steps.gas)
            # Offers placed here keep the contract's default dispute_window
            # of 5 blocks: the abort opens on the sixth.
            steps.hold(
                buyer, self.contract, "abort", sale_id,
                site="chain.abort", noun="buyer abort for sale %s" % sale_id,
                span=telemetry.span("fairswap.abort", sale_id=sale_id), after_blocks=6,
            )
            steps.tx(
                seller, self.contract, "reveal_key", sale_id, listing.key,
                site="chain.reveal", noun="reveal", fatal="reveal rejected",
            )
            steps.release()

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
                return FairSwapResult(True, decrypted, "ok", steps.gas + receipt.gas_used)

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
                False, None, "seller cheated; buyer refunded", steps.gas + receipt.gas_used,
                dispute_gas=receipt.gas_used,
            )
        except Exception as exc:
            reason = steps.abort(exc)
            return FairSwapResult(False, None, reason, steps.gas, aborted=True)
