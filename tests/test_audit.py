"""Tests for the marketplace audit API (buyer-side due diligence)."""

import dataclasses

import pytest

from repro.core.marketplace import ZKDETMarketplace
from repro.core.tokens import DataAsset
from repro.core.transform_protocol import prove_encryption, verify_encryption
from repro.core.transformations import Duplication

pytestmark = pytest.mark.slow


@pytest.fixture(scope="module")
def audited_market(snark_ctx):
    market = ZKDETMarketplace(snark_ctx)
    alice = market.register_participant()
    source = market.publish_dataset(alice, [77, 88])
    derived, _pi_t = market.transform(alice, [source], Duplication())
    return market, alice, source, derived[0]


class TestAudit:
    def test_clean_lineage_passes(self, audited_market):
        market, _alice, source, derived = audited_market
        report = market.audit(derived.token_id)
        assert report.ok, report.failed_checks()
        descriptions = [d for d, _ in report.checks]
        assert any("pi_e" in d for d in descriptions)
        assert any("pi_t" in d for d in descriptions)
        # Source audits cleanly too (no lineage to check).
        assert market.audit(source.token_id).ok

    def test_unknown_token_fails(self, audited_market):
        market, *_ = audited_market
        report = market.audit(999999)
        assert not report.ok
        assert "token exists on chain" in report.failed_checks()

    def test_tampered_storage_fails_audit(self, audited_market):
        market, alice, source, _derived = audited_market
        market.storage.tamper(source.asset.uri, b"corrupted")
        report = market.audit(source.token_id)
        assert not report.ok
        assert any("ciphertext" in d for d in report.failed_checks())
        # Restore for other tests.
        market.storage.put(source.asset.serialized_ciphertext(), owner=alice)

    def test_missing_pi_t_detected(self, audited_market):
        market, _alice, _source, derived = audited_market
        stashed = market._pi_t_registry.pop(derived.token_id)
        try:
            report = market.audit(derived.token_id)
            assert not report.ok
            assert any("pi_t published" in d for d in report.failed_checks())
        finally:
            market._pi_t_registry[derived.token_id] = stashed

    def test_forged_registry_proof_detected(self, audited_market):
        market, _alice, source, derived = audited_market
        transformation, pi_t, source_ids = market._pi_t_registry[derived.token_id]
        forged = pi_t.__class__(
            proof=pi_t.proof,
            transformation_name=pi_t.transformation_name,
            source_sizes=pi_t.source_sizes,
            derived_sizes=pi_t.derived_sizes,
            source_commitments=(12345,),  # not what the chain records
            derived_commitments=pi_t.derived_commitments,
        )
        market._pi_t_registry[derived.token_id] = (transformation, forged, source_ids)
        try:
            report = market.audit(derived.token_id)
            assert not report.ok
        finally:
            market._pi_t_registry[derived.token_id] = (transformation, pi_t, source_ids)

    def test_valid_pi_e_for_other_ciphertext_fails_audit(self, audited_market, snark_ctx):
        """The audit binds storage to statement.  An asset with the
        published plaintext, commitment and blinder but a fresh key and
        nonce has a *valid* pi_e that matches the on-chain commitment —
        yet it speaks about a ciphertext the token's URI does not hold."""
        market, _alice, source, _derived = audited_market
        fresh = DataAsset.create(source.asset.plaintext)
        other = dataclasses.replace(
            fresh,
            data_commitment=source.asset.data_commitment,
            data_blinder=source.asset.data_blinder,
        )
        assert other.ciphertext != source.asset.ciphertext
        pi_e = prove_encryption(snark_ctx, other)
        assert verify_encryption(snark_ctx, other.public_view(), pi_e)
        assert pi_e.data_commitment == source.asset.data_commitment.value
        honest = market._pi_e_registry[source.token_id]
        market._pi_e_registry[source.token_id] = pi_e
        try:
            report = market.audit(source.token_id)
        finally:
            market._pi_e_registry[source.token_id] = honest
        assert not report.ok
        assert report.failed_checks() == ["ciphertext resolves and matches its URI"]
        assert market.audit(source.token_id).ok
