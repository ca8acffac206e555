"""Full-system integration test: the ZKDET marketplace end to end.

One comprehensive scenario (marked slow — it generates ~6 real Plonk
proofs): publish -> transform -> sell -> trace, plus failure paths.
"""

import pytest

from repro.errors import ProtocolError
from repro.core.marketplace import ZKDETMarketplace
from repro.core.tokens import commitment_digest
from repro.core.transformations import Duplication

pytestmark = pytest.mark.slow


@pytest.fixture(scope="module")
def market(snark_ctx):
    return ZKDETMarketplace(snark_ctx)


@pytest.fixture(scope="module")
def alice(market):
    return market.register_participant()


@pytest.fixture(scope="module")
def bob(market):
    return market.register_participant()


@pytest.fixture(scope="module")
def published(market, alice):
    return market.publish_dataset(alice, [1001, 1002])


class TestLifecycle:
    def test_publish_binds_data_to_token(self, market, alice, published):
        assert published.token_id >= 1
        assert market.chain.call_view(market.token, "owner_of", published.token_id) == alice
        uri = market.chain.call_view(market.token, "token_uri", published.token_id)
        assert uri == published.asset.uri
        # The stored blob is the ciphertext, and its URI verifies.
        assert market.fetch_ciphertext(published.token_id) == published.asset.serialized_ciphertext()
        # The token records the digest of the asset's [d] and entry count.
        point = published.asset.data_commitment(market.snark.srs)
        assert market.chain.call_view(
            market.token, "commitment_of", published.token_id
        ) == commitment_digest(point, len(published.asset.plaintext))

    def test_duplicate_records_lineage(self, market, alice, published):
        derived, pi_t = market.transform(alice, [published], Duplication())
        assert len(derived) == 1
        replica = derived[0]
        assert replica.asset.plaintext == published.asset.plaintext
        assert replica.asset.key != published.asset.key
        prev = market.chain.call_view(market.token, "prev_ids", replica.token_id)
        assert prev == (published.token_id,)
        graph = market.provenance()
        assert published.token_id in graph.ancestors(replica.token_id)

    def test_sell_transfers_token_and_key_stays_private(
        self, market, alice, bob, published
    ):
        buyer_balance = market.chain.balance_of(bob)
        result = market.sell(alice, published, bob, price=7000)
        assert result.success, result.reason
        assert result.plaintext == [1001, 1002]
        assert market.chain.call_view(market.token, "owner_of", published.token_id) == bob
        assert market.chain.balance_of(bob) < buyer_balance
        # No transaction or storage slot ever held the raw key.
        masked = market.chain.call_view(market.arbiter, "masked_key", result.exchange_id)
        assert masked != published.asset.key

    def test_provenance_after_lifecycle(self, market):
        graph = market.provenance()
        assert graph.is_acyclic()
        assert graph.num_tokens >= 2


class TestFailurePaths:
    def test_transform_requires_sources(self, market, alice):
        with pytest.raises(ProtocolError):
            market.transform(alice, [], Duplication())

    def test_cannot_transform_unowned_token(self, market, alice, bob, published):
        # `published` now belongs to bob (sold above); alice's duplicate
        # must revert on chain.
        with pytest.raises(ProtocolError):
            market.transform(alice, [published], Duplication())

    def test_fetch_unknown_token(self, market):
        with pytest.raises(ProtocolError):
            market.fetch_ciphertext(424242)
