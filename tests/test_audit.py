"""Tests for the marketplace audit API (buyer-side due diligence)."""

import dataclasses

import pytest

from repro.core.marketplace import ZKDETMarketplace, _proof_hash
from repro.core.tokens import DataAsset
from repro.core.transform_protocol import (
    build_transformation_circuit,
    prove_encryption,
    verify_encryption,
    verify_transformation,
)
from repro.core.transformations import Aggregation, Duplication, Partition
from repro.curve.g1 import G1
from repro.plonk.circuit import CircuitBuilder
from repro.plonk.prover import prove

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
            source_commitments=pi_t.derived_commitments,  # not what the chain records
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
        published plaintext and data blinder but a fresh key and nonce has
        a *valid* pi_e that links the on-chain [d] — yet it speaks about a
        ciphertext the token's URI does not hold."""
        market, _alice, source, _derived = audited_market
        fresh = DataAsset.create(source.asset.plaintext)
        other = dataclasses.replace(fresh, data_blinder=source.asset.data_blinder)
        assert other.ciphertext != source.asset.ciphertext
        pi_e = prove_encryption(snark_ctx, other)
        assert verify_encryption(snark_ctx, other.public_view(snark_ctx.srs), pi_e)
        assert pi_e.data_commitment == source.asset.data_commitment(snark_ctx.srs)
        honest = market._pi_e_registry[source.token_id]
        market._pi_e_registry[source.token_id] = pi_e
        try:
            report = market.audit(source.token_id)
        finally:
            market._pi_e_registry[source.token_id] = honest
        assert not report.ok
        assert report.failed_checks() == ["ciphertext resolves and matches its URI"]
        assert market.audit(source.token_id).ok


@pytest.fixture(scope="module")
def linked_lineage(snark_ctx):
    """A two-source aggregation and a two-part partition: pi_t links three
    datasets each, the most a circuit links."""
    market = ZKDETMarketplace(snark_ctx)
    alice = market.register_participant()
    left = market.publish_dataset(alice, [5])
    right = market.publish_dataset(alice, [6, 7])
    (merged,), _ = market.transform(alice, [left, right], Aggregation())
    parts, _ = market.transform(alice, [merged], Partition(sizes=(1, 2)))
    return market, merged, parts


class TestLinkedLineageAudit:
    def test_aggregation_and_partition_pass_their_audits(self, linked_lineage):
        market, merged, parts = linked_lineage
        for published in (merged, *parts):
            report = market.audit(published.token_id)
            assert report.ok, report.failed_checks()
        assert [p.asset.plaintext for p in parts] == [[5], [6, 7]]
        # A part's audit walks both pi_t hops back to the roots (Figure 3).
        lineage = [d for d, _ in market.audit(parts[0].token_id).checks if d.startswith("pi_t")]
        assert lineage == [
            "pi_t (partition) verifies for token %d" % parts[0].token_id,
            "pi_t (aggregation) verifies for token %d" % merged.token_id,
        ]

    @pytest.mark.parametrize("edge", ["aggregation", "partition"])
    def test_one_forged_derived_point_fails_the_audit(self, linked_lineage, edge):
        """The audit compares each on-chain digest with the point pi_t
        links: a derived [d] swapped for another point fails both."""
        market, merged, parts = linked_lineage
        token = merged.token_id if edge == "aggregation" else parts[1].token_id
        transformation, pi_t, source_ids = market._pi_t_registry[token]
        derived = list(pi_t.derived_commitments)
        derived[-1] = derived[-1] + G1.generator()
        forged = dataclasses.replace(pi_t, derived_commitments=tuple(derived))
        market._pi_t_registry[token] = (transformation, forged, source_ids)
        try:
            report = market.audit(token)
        finally:
            market._pi_t_registry[token] = (transformation, pi_t, source_ids)
        assert not report.ok
        assert report.failed_checks() == ["pi_t (%s) verifies for token %d" % (edge, token)]
        assert market.audit(token).ok

    def test_a_source_declared_with_a_padding_entry_fails_the_audit(self, linked_lineage):
        """The merged dataset holds three entries, so its [d] pads one zero
        to m = 4 and also commits [5, 6, 7, 0].  A duplication that declares
        the source at four entries proves, verifies and mints; the audit
        refuses it, since the source digest it names carries the count 4
        and the chain's carries 3."""
        market, merged, _parts = linked_lineage
        srs = market.snark.srs
        owner = market.chain.call_view(market.token, "owner_of", merged.token_id)
        padded = dataclasses.replace(merged.asset, plaintext=merged.asset.plaintext + [0])
        assert padded.data_commitment(srs) == merged.asset.data_commitment(srs)
        source = dataclasses.replace(merged, asset=padded)
        (copy,), pi_t = market.transform(owner, [source], Duplication())
        assert (pi_t.source_sizes, copy.asset.plaintext) == ((4,), [5, 6, 7, 0])
        report = market.audit(copy.token_id)
        assert report.failed_checks() == [
            "pi_t (duplication) verifies for token %d" % copy.token_id
        ]


@pytest.fixture(scope="module")
def two_sources(snark_ctx):
    """Alice owns two unrelated datasets X and Y, and a duplicate of Y."""
    market = ZKDETMarketplace(snark_ctx)
    alice = market.register_participant()
    x = market.publish_dataset(alice, [11, 12])
    y = market.publish_dataset(alice, [21, 22])
    (copy,), _pi_t = market.transform(alice, [y], Duplication())
    return market, alice, x, y, copy


def _mint_as_the_copy(market, alice, method, sources, copy):
    """Mint a token through ``method`` over ``sources`` that carries the
    copy's URI, digest and pi_t hash, and publish the copy's pi_e and pi_t
    record for it: every check but the chain bindings holds."""
    record = market._pi_t_registry[copy.token_id]
    receipt = market.chain.transact(
        alice, market.token, method, *sources,
        copy.asset.uri, copy.encryption_proof.data_digest, _proof_hash(record[1].proof),
    )
    assert receipt.status, receipt.error
    token = receipt.return_value
    market._pi_e_registry[token] = copy.encryption_proof
    market._pi_t_registry[token] = record
    return token


class TestChainBindings:
    """The audit reads each registry record against what the chain minted:
    its sources and their order, its transformation kind and its proof's
    hash (a root's pi_e, a derived token's pi_t)."""

    def test_a_record_of_other_sources_fails_the_audit(self, two_sources):
        """A token minted as a duplicate of X, whose published record is
        Y's duplication: the proof verifies and links every digest it
        names, but the chain says the token came from X."""
        market, alice, x, y, copy = two_sources
        token = _mint_as_the_copy(market, alice, "duplicate", (x.token_id,), copy)
        assert market._pi_t_registry[token][2] == (y.token_id,)
        report = market.audit(token)
        assert report.failed_checks() == ["pi_t (duplication) verifies for token %d" % token]
        assert market.audit(copy.token_id).ok

    def test_a_record_of_another_kind_fails_the_audit(self, two_sources):
        """A token minted through ``process`` over Y whose record names a
        duplication: sources and digests match, the kind does not."""
        market, alice, _x, y, copy = two_sources
        token = _mint_as_the_copy(market, alice, "process", ((y.token_id,),), copy)
        assert market.chain.call_view(market.token, "kind_of", token) == "processing"
        report = market.audit(token)
        assert report.failed_checks() == ["pi_t (duplication) verifies for token %d" % token]

    def test_a_reproved_root_pi_e_fails_the_audit(self, two_sources, snark_ctx):
        """A fresh, valid pi_e of the same asset: the same statement in
        other bytes than the proof whose hash the root token records."""
        market, _alice, x, _y, _copy = two_sources
        reproved = prove_encryption(snark_ctx, x.asset)
        assert reproved.proof.to_bytes() != x.encryption_proof.proof.to_bytes()
        assert verify_encryption(snark_ctx, x.asset.public_view(snark_ctx.srs), reproved)
        market._pi_e_registry[x.token_id] = reproved
        try:
            report = market.audit(x.token_id)
        finally:
            market._pi_e_registry[x.token_id] = x.encryption_proof
        assert report.failed_checks() == ["ciphertext resolves and matches its URI"]
        assert len(report.checks) == 4
        assert market.audit(x.token_id).ok

    def test_a_reproved_pi_t_fails_the_audit(self, two_sources, snark_ctx):
        """The owner, who knows the copy's blinder, proves the same
        duplication again: a valid pi_t of the same statement whose hash
        is not the one the chain records."""
        market, _alice, _x, y, copy = two_sources
        transformation, pi_t, sources = market._pi_t_registry[copy.token_id]
        srs = snark_ctx.srs
        builder = CircuitBuilder()
        source, derived = (
            [(a.plaintext, a.data_commitment(srs), a.data_blinder)] for a in (y.asset, copy.asset)
        )
        build_transformation_circuit(builder, transformation, source, derived)
        layout, assignment = builder.compile()
        reproved = dataclasses.replace(pi_t, proof=prove(snark_ctx.keys_for(layout).pk, assignment))
        assert reproved.proof.to_bytes() != pi_t.proof.to_bytes()
        assert verify_transformation(snark_ctx, transformation, reproved)
        market._pi_t_registry[copy.token_id] = (transformation, reproved, sources)
        try:
            report = market.audit(copy.token_id)
        finally:
            market._pi_t_registry[copy.token_id] = (transformation, pi_t, sources)
        assert report.failed_checks() == [
            "pi_t (duplication) verifies for token %d" % copy.token_id
        ]
        assert market.audit(copy.token_id).ok
