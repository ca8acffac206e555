"""Tests for the FairSwap baseline (Section VII-B).

Verifies the optimistic path, the dispute path, and the two properties
the paper contrasts against ZKDET: (i) the key leaks on chain, and
(ii) dispute gas grows with data size.
"""

import pytest

from repro.chain import Blockchain
from repro.core.fairswap import FairSwapExchange, FairSwapListing
from repro.contracts.fairswap import FairSwapContract
from repro.errors import ProtocolError
from repro.primitives.hashing import field_hash


@pytest.fixture
def market():
    chain = Blockchain()
    seller = chain.create_account(funded=10**9)
    buyer = chain.create_account(funded=10**9)
    contract = FairSwapContract()
    chain.deploy(contract, seller)
    return chain, contract, seller, buyer


class TestFairSwapHappyPath:
    def test_honest_sale_settles(self, market):
        chain, contract, seller, buyer = market
        listing = FairSwapListing.create([10, 20, 30, 40], key=777, nonce=3)
        protocol = FairSwapExchange(chain, contract)
        seller_before = chain.balance_of(seller)
        result = protocol.run(seller, buyer, listing, price=5000)
        assert result.success, result.reason
        assert result.plaintext == [10, 20, 30, 40]
        assert chain.balance_of(seller) == seller_before + 5000

    def test_finalize_waits_out_exactly_the_dispute_window(self, market):
        chain, contract, seller, buyer = market
        window = 5  # the contract's default dispute_window
        listing = FairSwapListing.create([10, 20], key=777, nonce=3)
        height = len(chain.blocks)
        assert FairSwapExchange(chain, contract).run(seller, buyer, listing, price=100).success
        assert len(chain.blocks) == height + window + 1
        # The same sale by hand: refused at the window, paid one block later.
        sale_id = chain.transact(
            seller, contract, "offer",
            listing.cipher_tree.root, listing.plain_tree.root,
            field_hash(listing.key), listing.nonce, 2, 100,
        ).return_value
        chain.transact(buyer, contract, "accept", sale_id, value=100)
        chain.transact(seller, contract, "reveal_key", sale_id, listing.key)
        for _ in range(window):
            chain.seal_block()
        refused = chain.transact(seller, contract, "finalize", sale_id)
        assert not refused.status and "dispute window still open" in refused.error
        chain.seal_block()
        assert chain.transact(seller, contract, "finalize", sale_id).status

    def test_key_leaks_like_zkcp(self, market):
        chain, contract, seller, buyer = market
        listing = FairSwapListing.create([10, 20], key=777, nonce=3)
        FairSwapExchange(chain, contract).run(seller, buyer, listing, price=100)
        # Any third party reads the key from public chain state.
        assert chain.call_view(contract, "revealed_key", 1) == 777

    def test_empty_listing_rejected(self):
        with pytest.raises(ProtocolError):
            FairSwapListing.create([])


class TestFairSwapDisputes:
    def test_cheating_seller_loses_dispute(self, market):
        chain, contract, seller, buyer = market
        listing = FairSwapListing.create([10, 20, 30, 40], key=777, nonce=3)
        protocol = FairSwapExchange(chain, contract)
        buyer_before = chain.balance_of(buyer)
        seller_before = chain.balance_of(seller)
        result = protocol.run(seller, buyer, listing, price=5000, cheat_block=2)
        assert not result.success
        assert "refunded" in result.reason
        assert result.dispute_gas > 0
        assert chain.balance_of(buyer) == buyer_before  # made whole
        assert chain.balance_of(seller) == seller_before  # gained nothing
        assert chain.call_view(contract, "resolution", 1) == "refunded"

    def test_false_complaint_rejected(self, market):
        chain, contract, seller, buyer = market
        listing = FairSwapListing.create([10, 20, 30, 40], key=777, nonce=3)
        # Honest sale; buyer tries to complain anyway with a valid block.
        r = chain.transact(
            seller, contract, "offer",
            listing.cipher_tree.root, listing.plain_tree.root,
            field_hash(listing.key), listing.nonce, 4, 5000,
        )
        sale_id = r.return_value
        chain.transact(buyer, contract, "accept", sale_id, value=5000)
        chain.transact(seller, contract, "reveal_key", sale_id, listing.key)
        c_proof = listing.cipher_tree.prove(1)
        p_proof = listing.plain_tree.prove(1)
        r = chain.transact(
            buyer, contract, "complain", sale_id, 1,
            listing.cipher_blocks[1],
            tuple(c_proof.siblings), tuple(c_proof.path_bits),
            listing.blocks[1],
            tuple(p_proof.siblings), tuple(p_proof.path_bits),
        )
        assert not r.status
        assert "no misbehaviour" in r.error

    def test_complaint_with_forged_path_rejected(self, market):
        chain, contract, seller, buyer = market
        listing = FairSwapListing.create([10, 20, 30, 40], key=777, nonce=3)
        listing.tamper_block(2)
        from repro.primitives.hashing import field_hash

        sale_id = chain.transact(
            seller, contract, "offer",
            listing.cipher_tree.root, listing.plain_tree.root,
            field_hash(listing.key), listing.nonce, 4, 5000,
        ).return_value
        chain.transact(buyer, contract, "accept", sale_id, value=5000)
        chain.transact(seller, contract, "reveal_key", sale_id, listing.key)
        c_proof = listing.cipher_tree.prove(2)
        p_proof = listing.plain_tree.prove(2)
        # Wrong plaintext leaf for the claimed path.
        r = chain.transact(
            buyer, contract, "complain", sale_id, 2,
            listing.cipher_blocks[2],
            tuple(c_proof.siblings), tuple(c_proof.path_bits),
            999,  # not the advertised leaf
            tuple(p_proof.siblings), tuple(p_proof.path_bits),
        )
        assert not r.status

    def test_dispute_gas_grows_with_data_size(self, market):
        """The paper's criticism of FairSwap, measured."""
        chain, contract, seller, buyer = market
        protocol = FairSwapExchange(chain, contract)
        gas_by_size = {}
        for num_blocks in (4, 64, 1024):
            listing = FairSwapListing.create(list(range(1, num_blocks + 1)), key=9, nonce=1)
            result = protocol.run(
                seller, buyer, listing, price=100, cheat_block=num_blocks // 2
            )
            assert not result.success
            gas_by_size[num_blocks] = result.dispute_gas
        assert gas_by_size[4] < gas_by_size[64] < gas_by_size[1024]


class TestFairSwapGuards:
    def test_offer_and_accept_validation(self, market):
        chain, contract, seller, buyer = market
        assert not chain.transact(
            seller, contract, "offer", 1, 2, 3, 4, 0, 100
        ).status  # zero blocks
        listing = FairSwapListing.create([1, 2], key=5, nonce=6)
        from repro.primitives.hashing import field_hash

        sale_id = chain.transact(
            seller, contract, "offer",
            listing.cipher_tree.root, listing.plain_tree.root,
            field_hash(5), 6, 2, 100,
        ).return_value
        assert not chain.transact(buyer, contract, "accept", sale_id, value=55).status
        chain.transact(buyer, contract, "accept", sale_id, value=100)
        assert not chain.transact(buyer, contract, "accept", sale_id, value=100).status
        # Wrong key rejected; early finalize rejected.
        assert not chain.transact(seller, contract, "reveal_key", sale_id, 6).status
        assert not chain.transact(seller, contract, "finalize", sale_id).status
