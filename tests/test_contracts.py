"""Tests for the ZKDET contract suite: ERC-721 data tokens, auctions,
arbiters, and the on-chain verifier."""

import pytest

from repro.chain import Blockchain
from repro.contracts import (
    ClockAuctionContract,
    DataTokenContract,
    ZKCPArbiterContract,
)
from repro.primitives.hashing import field_hash


@pytest.fixture
def env():
    chain = Blockchain()
    alice = chain.create_account(funded=10**9)
    bob = chain.create_account(funded=10**9)
    token = DataTokenContract()
    chain.deploy(token, alice)
    return chain, alice, bob, token


class TestDataToken:
    def test_mint_and_metadata(self, env):
        chain, alice, _, token = env
        receipt = chain.transact(alice, token, "mint", "uri-1", 12345, "proofhash")
        tid = receipt.return_value
        assert tid == 1
        assert chain.call_view(token, "owner_of", tid) == alice
        assert chain.call_view(token, "token_uri", tid) == "uri-1"
        assert chain.call_view(token, "commitment_of", tid) == 12345
        assert chain.call_view(token, "prev_ids", tid) == ()
        assert chain.call_view(token, "kind_of", tid) == "source"
        assert chain.call_view(token, "proof_hash_of", tid) == "proofhash"
        assert chain.call_view(token, "balance_of", alice) == 1
        assert chain.call_view(token, "total_minted") == 1

    def test_token_ids_are_unique(self, env):
        chain, alice, _, token = env
        ids = [
            chain.transact(alice, token, "mint", "u%d" % i, i).return_value
            for i in range(5)
        ]
        assert len(set(ids)) == 5

    def test_transfer_and_approval(self, env):
        chain, alice, bob, token = env
        tid = chain.transact(alice, token, "mint", "u", 1).return_value
        # Bob cannot move Alice's token.
        r = chain.transact(bob, token, "transfer_from", alice, bob, tid)
        assert not r.status
        # Approval lets him.
        chain.transact(alice, token, "approve", bob, tid)
        r = chain.transact(bob, token, "transfer_from", alice, bob, tid)
        assert r.status
        assert chain.call_view(token, "owner_of", tid) == bob
        assert chain.call_view(token, "balance_of", alice) == 0
        assert chain.call_view(token, "balance_of", bob) == 1

    def test_transfer_wrong_from_rejected(self, env):
        chain, alice, bob, token = env
        tid = chain.transact(alice, token, "mint", "u", 1).return_value
        r = chain.transact(alice, token, "transfer_from", bob, alice, tid)
        assert not r.status

    def test_burn(self, env):
        chain, alice, _, token = env
        tid = chain.transact(alice, token, "mint", "u", 1).return_value
        chain.transact(alice, token, "burn", tid)
        assert chain.call_view(token, "owner_of", tid) is None
        assert chain.call_view(token, "is_burned", tid)
        assert chain.call_view(token, "balance_of", alice) == 0

    def test_aggregate(self, env):
        chain, alice, bob, token = env
        t1 = chain.transact(alice, token, "mint", "u1", 1).return_value
        t2 = chain.transact(alice, token, "mint", "u2", 2).return_value
        agg = chain.transact(
            alice, token, "aggregate", (t1, t2), "u-agg", 3, "pf"
        ).return_value
        assert chain.call_view(token, "prev_ids", agg) == (t1, t2)
        assert chain.call_view(token, "kind_of", agg) == "aggregation"
        # Cannot aggregate tokens you don't own.
        t3 = chain.transact(bob, token, "mint", "u3", 3).return_value
        r = chain.transact(alice, token, "aggregate", (t1, t3), "x", 4, "pf")
        assert not r.status
        # Needs at least two sources.
        r = chain.transact(alice, token, "aggregate", (t1,), "x", 4, "pf")
        assert not r.status

    def test_partition(self, env):
        chain, alice, _, token = env
        src = chain.transact(alice, token, "mint", "u", 9).return_value
        parts = chain.transact(
            alice, token, "partition", src, (("p1", 11), ("p2", 22)), "pf"
        ).return_value
        assert len(parts) == 2
        for p in parts:
            assert chain.call_view(token, "prev_ids", p) == (src,)
            assert chain.call_view(token, "kind_of", p) == "partition"

    def test_duplicate_and_process(self, env):
        chain, alice, _, token = env
        src = chain.transact(alice, token, "mint", "u", 9).return_value
        dup = chain.transact(alice, token, "duplicate", src, "d", 9, "pf").return_value
        assert chain.call_view(token, "kind_of", dup) == "duplication"
        model = chain.transact(
            alice, token, "process", (src,), "m", 77, "pf"
        ).return_value
        assert chain.call_view(token, "kind_of", model) == "processing"
        assert chain.call_view(token, "prev_ids", model) == (src,)

    def test_unknown_parent_rejected(self, env):
        chain, alice, _, token = env
        chain.transact(alice, token, "mint", "u", 9)
        r = chain.transact(alice, token, "duplicate", 999, "d", 9, "pf")
        assert not r.status


class TestClockAuction:
    @pytest.fixture
    def market(self, env):
        chain, alice, bob, token = env
        auction = ClockAuctionContract(token)
        chain.deploy(auction, alice)
        tid = chain.transact(alice, token, "mint", "u", 1).return_value
        chain.transact(alice, token, "approve", auction.address, tid)
        return chain, alice, bob, token, auction, tid

    def test_create_escrows_token(self, market):
        chain, alice, _, token, auction, tid = market
        aid = chain.transact(
            alice, auction, "create_auction", tid, 1000, 100, 10
        ).return_value
        assert chain.call_view(token, "owner_of", tid) == auction.address
        assert chain.call_view(auction, "current_price", aid) == 1000
        assert chain.call_view(auction, "seller_of", aid) == alice

    def test_price_decays_to_floor(self, market):
        chain, alice, _, _, auction, tid = market
        aid = chain.transact(
            alice, auction, "create_auction", tid, 1000, 100, 200
        ).return_value
        chain.seal_block()
        chain.seal_block()
        assert chain.call_view(auction, "current_price", aid) == 600
        for _ in range(10):
            chain.seal_block()
        assert chain.call_view(auction, "current_price", aid) == 100

    def test_bid_settles(self, market):
        chain, alice, bob, token, auction, tid = market
        aid = chain.transact(
            alice, auction, "create_auction", tid, 1000, 100, 0
        ).return_value
        alice_before = chain.balance_of(alice)
        bob_before = chain.balance_of(bob)
        r = chain.transact(bob, auction, "bid", aid, value=1500)
        assert r.status and r.return_value == 1000
        assert chain.call_view(token, "owner_of", tid) == bob
        assert chain.balance_of(alice) == alice_before + 1000
        assert chain.balance_of(bob) == bob_before - 1000  # excess refunded

    def test_low_bid_rejected(self, market):
        chain, alice, bob, _, auction, tid = market
        aid = chain.transact(
            alice, auction, "create_auction", tid, 1000, 100, 0
        ).return_value
        r = chain.transact(bob, auction, "bid", aid, value=500)
        assert not r.status

    def test_cancel_returns_token(self, market):
        chain, alice, bob, token, auction, tid = market
        aid = chain.transact(
            alice, auction, "create_auction", tid, 1000, 100, 0
        ).return_value
        r = chain.transact(bob, auction, "cancel", aid)
        assert not r.status  # only seller
        chain.transact(alice, auction, "cancel", aid)
        assert chain.call_view(token, "owner_of", tid) == alice


class TestZKCPArbiter:
    def test_happy_path_leaks_key(self, env):
        chain, alice, bob, _ = env  # alice = seller, bob = buyer
        arbiter = ZKCPArbiterContract()
        chain.deploy(arbiter, alice)
        key = 123456789
        deal = chain.transact(
            bob, arbiter, "lock", alice, field_hash(key), value=5000
        ).return_value
        alice_before = chain.balance_of(alice)
        chain.transact(alice, arbiter, "open", deal, key)
        assert chain.balance_of(alice) == alice_before + 5000
        # The vulnerability: ANY third party can now read the key.
        assert chain.call_view(arbiter, "revealed_key", deal) == key

    def test_wrong_key_rejected(self, env):
        chain, alice, bob, _ = env
        arbiter = ZKCPArbiterContract()
        chain.deploy(arbiter, alice)
        deal = chain.transact(
            bob, arbiter, "lock", alice, field_hash(42), value=5000
        ).return_value
        r = chain.transact(alice, arbiter, "open", deal, 43)
        assert not r.status
        # Buyer can reclaim.
        bob_before = chain.balance_of(bob)
        chain.transact(bob, arbiter, "refund", deal)
        assert chain.balance_of(bob) == bob_before + 5000

    def test_only_counterparties(self, env):
        chain, alice, bob, _ = env
        carol = chain.create_account(funded=10**9)
        arbiter = ZKCPArbiterContract()
        chain.deploy(arbiter, alice)
        deal = chain.transact(
            bob, arbiter, "lock", alice, field_hash(1), value=10
        ).return_value
        assert not chain.transact(carol, arbiter, "open", deal, 1).status
        assert not chain.transact(carol, arbiter, "refund", deal).status
