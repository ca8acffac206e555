"""Tests for the phi(D) predicate library (fast satisfaction checks plus
one real predicate-carrying exchange)."""

import pytest

from repro.errors import CircuitError, ProtocolError, UnsatisfiedConstraintError
from repro.gadgets.merkle import MerkleTree
from repro.plonk.circuit import CircuitBuilder
from repro.core.predicates import (
    all_of,
    contains_committed_row,
    entries_in_range,
    entry_at_index_equals,
    mean_bounds,
    sum_in_range,
)


def check(predicate, values, expect_ok=True):
    builder = CircuitBuilder()
    wires = [builder.var(v) for v in values]
    if expect_ok:
        predicate(builder, wires)
        layout, assignment = builder.compile()
        layout.check(assignment)
    else:
        with pytest.raises((UnsatisfiedConstraintError, CircuitError)):
            predicate(builder, wires)
            builder.compile()


class TestPredicates:
    def test_entries_in_range(self):
        check(entries_in_range(8), [0, 255, 17])
        check(entries_in_range(8), [256], expect_ok=False)

    def test_sum_in_range(self):
        check(sum_in_range(10, 20, entry_bits=8), [5, 7])   # sum 12
        check(sum_in_range(10, 20, entry_bits=8), [12, 8])  # sum 20 inclusive
        check(sum_in_range(10, 20, entry_bits=8), [4, 5], expect_ok=False)
        check(sum_in_range(10, 20, entry_bits=8), [15, 15], expect_ok=False)
        with pytest.raises(ProtocolError):
            sum_in_range(20, 10)

    def test_mean_bounds(self):
        # mean of [4, 6, 8] = 6, bounds [5, 7].
        check(mean_bounds(5, 7, num_entries=3, entry_bits=8), [4, 6, 8])
        check(mean_bounds(5, 7, num_entries=3, entry_bits=8), [1, 1, 1], expect_ok=False)

    def test_entry_at_index_equals(self):
        check(entry_at_index_equals(1, 42), [9, 42, 13])
        check(entry_at_index_equals(1, 42), [9, 43, 13], expect_ok=False)
        builder = CircuitBuilder()
        with pytest.raises(ProtocolError):
            entry_at_index_equals(5, 1)(builder, [builder.var(1)])

    def test_contains_committed_row(self):
        registry = MerkleTree([100, 200, 300, 400])
        pred = contains_committed_row(registry.root, registry.prove(2), index=0)
        check(pred, [300, 999])      # D[0] == leaf 300
        check(pred, [301, 999], expect_ok=False)

    def test_all_of_composition(self):
        combined = all_of(entries_in_range(8), sum_in_range(5, 50, entry_bits=8))
        check(combined, [10, 20])
        check(combined, [1, 1], expect_ok=False)  # sum below 5
        assert "entries_in_range" in combined.__name__
        assert "sum_in_range" in combined.__name__

    def test_predicates_have_distinct_names(self):
        assert entries_in_range(8).__name__ != entries_in_range(16).__name__
        assert sum_in_range(1, 2).__name__ != sum_in_range(1, 3).__name__


@pytest.mark.slow
class TestPredicateExchange:
    def test_exchange_with_statistics_predicate(self, snark_ctx):
        """A buyer verifies 'all entries < 2^16 and sum in [50, 150]'
        before paying — without learning the entries."""
        from repro.chain import Blockchain
        from repro.contracts import KeySecureArbiterContract, PlonkVerifierContract
        from repro.core.exchange import Buyer, KeySecureExchange, Seller, key_negotiation_keys
        from repro.core.tokens import DataAsset

        chain = Blockchain()
        operator = chain.create_account(funded=10**12)
        verifier = PlonkVerifierContract(key_negotiation_keys(snark_ctx).vk)
        chain.deploy(verifier, operator)
        arbiter = KeySecureArbiterContract(verifier)
        chain.deploy(arbiter, operator)
        seller_addr = chain.create_account(funded=10**9)
        buyer_addr = chain.create_account(funded=10**9)

        phi = all_of(entries_in_range(16), sum_in_range(50, 150, entry_bits=16))
        asset = DataAsset.create([60, 40], key=123, nonce=456)
        asset.uri = "u"
        seller = Seller(snark_ctx, asset, seller_addr)
        buyer = Buyer(snark_ctx, asset.public_view(snark_ctx.srs), buyer_addr)
        protocol = KeySecureExchange(snark_ctx, chain, arbiter)
        result = protocol.run(seller, buyer, price=4000, predicate=phi)
        assert result.success, result.reason
        assert result.plaintext == [60, 40]

    def test_seller_cannot_prove_false_predicate(self, snark_ctx):
        from repro.errors import ProofError, UnsatisfiedConstraintError
        from repro.core.tokens import DataAsset
        from repro.core.transform_protocol import prove_encryption

        phi = sum_in_range(50, 150, entry_bits=16)
        asset = DataAsset.create([500, 400], key=1, nonce=2)  # sum 900
        with pytest.raises((ProofError, UnsatisfiedConstraintError)):
            prove_encryption(snark_ctx, asset, predicate=phi)
