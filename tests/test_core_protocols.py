"""Integration tests for the ZKDET protocols (real proofs, marked slow).

These exercise Theorems 5.1 and 5.2 end to end: transformation integrity,
exchange fairness for both parties, and — the headline property — that the
key-secure protocol never puts the decryption key on chain, while ZKCP
demonstrably does.
"""

import dataclasses

import pytest

from repro.chain import Blockchain
from repro.contracts import KeySecureArbiterContract, PlonkVerifierContract, ZKCPArbiterContract
from repro.curve.g1 import G1
from repro.errors import BackendError, ProtocolError, UnsatisfiedConstraintError
from repro.field.fr import MODULUS as R
from repro.core import exchange
from repro.core.exchange import Buyer, KeySecureExchange, Seller, key_negotiation_keys
from repro.core.tokens import DataAsset
from repro.core.transform_protocol import (
    EncryptionProof,
    prove_encryption,
    prove_transformation,
    verify_encryption,
    verify_transformation,
)
from repro.core.transformations import Aggregation, Duplication, Partition
from repro.core.zkcp import ZKCPExchange
from repro.plonk import prover
from repro.plonk.circuit import CircuitBuilder, Layout
from repro.primitives.hashing import field_hash

pytestmark = pytest.mark.slow


@pytest.fixture(scope="module")
def asset():
    a = DataAsset.create([101, 202], key=31337, nonce=777)
    return a


@pytest.fixture(scope="module")
def pi_e(snark_ctx, asset):
    return prove_encryption(snark_ctx, asset)


class TestTransformationProtocol:
    def test_pi_e_verifies(self, snark_ctx, asset, pi_e):
        assert verify_encryption(snark_ctx, asset.public_view(snark_ctx.srs), pi_e)

    def test_repeat_verification_compiles_nothing(self, snark_ctx, asset, pi_e, monkeypatch):
        """Verifiers look their keys up by shape: after the first call for
        (kind, sizes, predicate / transformation) no circuit is built."""
        _derived, pi_t = prove_transformation(snark_ctx, [asset], Duplication())
        assert verify_encryption(snark_ctx, asset.public_view(snark_ctx.srs), pi_e)
        assert verify_transformation(snark_ctx, Duplication(), pi_t)

        def no_compile(self, check=True):
            raise AssertionError("a verifier compiled a circuit for a shape it had seen")

        monkeypatch.setattr(CircuitBuilder, "compile", no_compile)
        assert verify_encryption(snark_ctx, asset.public_view(snark_ctx.srs), pi_e)
        # An equal transformation, not the same object: keyed by value.
        assert verify_transformation(snark_ctx, Duplication(), pi_t)
        # Another predicate is another circuit, so it does compile.
        view = asset.public_view(snark_ctx.srs)
        with pytest.raises(AssertionError, match="compiled a circuit"):
            verify_encryption(snark_ctx, view, pi_e, predicate=lambda b, pt: None)

    def test_pi_e_bound_to_statement(self, snark_ctx, asset, pi_e):
        other = DataAsset.create([101, 202], key=999, nonce=777)
        other.uri = "other"
        # Same plaintext, different key: the proof must not transfer.
        assert not verify_encryption(snark_ctx, other.public_view(snark_ctx.srs), pi_e)
        # Tampered commitment in the claimed statement.
        forged = EncryptionProof(
            proof=pi_e.proof,
            ciphertext_blocks=pi_e.ciphertext_blocks,
            nonce=pi_e.nonce,
            data_commitment=pi_e.data_commitment + G1.generator(),
            key_commitment=pi_e.key_commitment,
        )
        view = asset.public_view(snark_ctx.srs)
        assert not verify_encryption(snark_ctx, view, forged)

    def test_pi_t_duplication_roundtrip(self, snark_ctx, asset):
        derived, pi_t = prove_transformation(snark_ctx, [asset], Duplication())
        assert len(derived) == 1
        assert derived[0].plaintext == asset.plaintext
        assert derived[0].key != asset.key  # fresh key for the replica
        assert verify_transformation(snark_ctx, Duplication(), pi_t)

    def test_pi_t_rejects_forged_commitments(self, snark_ctx, asset):
        derived, pi_t = prove_transformation(snark_ctx, [asset], Duplication())
        forged = pi_t.__class__(
            proof=pi_t.proof,
            transformation_name=pi_t.transformation_name,
            source_sizes=pi_t.source_sizes,
            derived_sizes=pi_t.derived_sizes,
            source_commitments=pi_t.source_commitments,
            derived_commitments=(pi_t.derived_commitments[0] + G1.generator(),),
        )
        assert not verify_transformation(snark_ctx, Duplication(), forged)
        wrong_name = pi_t.__class__(
            proof=pi_t.proof,
            transformation_name="aggregation",
            source_sizes=pi_t.source_sizes,
            derived_sizes=pi_t.derived_sizes,
            source_commitments=pi_t.source_commitments,
            derived_commitments=pi_t.derived_commitments,
        )
        assert not verify_transformation(snark_ctx, Duplication(), wrong_name)

    def test_a_fourth_dataset_is_refused(self, snark_ctx, asset):
        """pi_t links every dataset, at most three in all: a three-source
        aggregation (four datasets) or a three-part partition is refused
        before anything is proven, and a verifier rejects the shape."""
        one = DataAsset.create([1])
        with pytest.raises(ProtocolError, match="at most 3 datasets"):
            prove_transformation(snark_ctx, [asset, one, one], Aggregation())
        with pytest.raises(ProtocolError, match="at most 3 datasets"):
            prove_transformation(snark_ctx, [DataAsset.create([1, 2, 3])], Partition(sizes=(1, 1, 1)))
        _derived, pi_t = prove_transformation(snark_ctx, [asset], Duplication())
        wide = dataclasses.replace(
            pi_t,
            transformation_name="aggregation",
            source_sizes=(2, 1, 1),
            derived_sizes=(4,),
        )
        assert not verify_transformation(snark_ctx, Aggregation(), wide)


class TestKeySecureExchange:
    @pytest.fixture()
    def market(self, snark_ctx):
        chain = Blockchain()
        operator = chain.create_account(funded=10**12)
        verifier = PlonkVerifierContract(key_negotiation_keys(snark_ctx).vk)
        chain.deploy(verifier, operator)
        arbiter = KeySecureArbiterContract(verifier)
        chain.deploy(arbiter, operator)
        seller_addr = chain.create_account(funded=10**9)
        buyer_addr = chain.create_account(funded=10**9)
        return chain, arbiter, seller_addr, buyer_addr

    @pytest.fixture()
    def sale_asset(self):
        a = DataAsset.create([42, 84], key=555, nonce=666)
        return a

    def test_honest_exchange(self, snark_ctx, market, sale_asset):
        chain, arbiter, seller_addr, buyer_addr = market
        store_uri = "fake-uri"
        sale_asset.uri = store_uri
        seller = Seller(snark_ctx, sale_asset, seller_addr)
        buyer = Buyer(snark_ctx, sale_asset.public_view(snark_ctx.srs), buyer_addr)
        protocol = KeySecureExchange(snark_ctx, chain, arbiter)
        seller_before = chain.balance_of(seller_addr)

        result = protocol.run(seller, buyer, price=5000)
        assert result.success, result.reason
        assert result.plaintext == [42, 84]
        assert chain.balance_of(seller_addr) == seller_before + 5000
        # THE key property: the chain never saw k, only k_c = k + k_v.
        masked = chain.call_view(arbiter, "masked_key", result.exchange_id)
        assert masked is not None
        assert masked != sale_asset.key
        assert (masked - buyer.k_v) % R == sale_asset.key  # only the buyer can unmask

    def test_malicious_seller_cannot_collect(self, snark_ctx, market, sale_asset):
        """Buyer fairness: wrong k_c fails on-chain verification; the
        buyer's funds come back."""
        chain, arbiter, seller_addr, buyer_addr = market
        sale_asset.uri = "u"
        seller = Seller(snark_ctx, sale_asset, seller_addr)
        buyer = Buyer(snark_ctx, sale_asset.public_view(snark_ctx.srs), buyer_addr)
        protocol = KeySecureExchange(snark_ctx, chain, arbiter)
        seller_before = chain.balance_of(seller_addr)
        buyer_before = chain.balance_of(buyer_addr)
        result = protocol.run(seller, buyer, price=5000, tamper_k_c=True)
        assert not result.success
        assert "pi_k rejected" in result.reason
        assert chain.balance_of(seller_addr) == seller_before
        assert chain.balance_of(buyer_addr) == buyer_before

    def test_malicious_buyer_aborts_cleanly(self, snark_ctx, market, sale_asset):
        """Seller fairness: a buyer lying about k_v makes the seller abort
        before any key material is produced; funds are refunded."""
        chain, arbiter, seller_addr, buyer_addr = market
        sale_asset.uri = "u"
        seller = Seller(snark_ctx, sale_asset, seller_addr)
        buyer = Buyer(snark_ctx, sale_asset.public_view(snark_ctx.srs), buyer_addr)
        protocol = KeySecureExchange(snark_ctx, chain, arbiter)
        buyer_before = chain.balance_of(buyer_addr)
        result = protocol.run(seller, buyer, price=5000, tamper_k_v=True)
        assert not result.success
        assert "aborting" in result.reason
        assert chain.balance_of(buyer_addr) == buyer_before

    def test_prover_failure_after_the_lock_refunds_the_buyer(
        self, snark_ctx, market, sale_asset, monkeypatch
    ):
        """Any pi_k prover failure once the payment is locked — not only a
        ``ProtocolError`` — aborts and refunds, as the node does: a
        ``BackendError`` used to propagate with the escrow still locked."""
        chain, arbiter, seller_addr, buyer_addr = market
        sale_asset.uri = "u"

        def broken(self, k_v, h_v_on_chain):
            raise BackendError("helper pipe closed")

        monkeypatch.setattr(Seller, "key_negotiation_message", broken)
        seller = Seller(snark_ctx, sale_asset, seller_addr)
        buyer = Buyer(snark_ctx, sale_asset.public_view(snark_ctx.srs), buyer_addr)
        buyer_before = chain.balance_of(buyer_addr)
        result = KeySecureExchange(snark_ctx, chain, arbiter).run(seller, buyer, price=5000)
        assert (result.success, result.aborted) == (False, True)
        assert result.reason == "prover failed: BackendError: helper pipe closed"
        assert result.exchange_id is not None
        assert chain.balance_of(buyer_addr) == buyer_before
        assert chain.balance_of(arbiter.address) == 0

    def test_seller_requires_published_asset(self, snark_ctx, market):
        _chain, _arbiter, seller_addr, _ = market
        unpublished = DataAsset.create([1], key=2, nonce=3)
        with pytest.raises(ProtocolError):
            Seller(snark_ctx, unpublished, seller_addr)


class TestZKCPBaseline:
    @pytest.fixture()
    def market(self):
        chain = Blockchain()
        operator = chain.create_account(funded=10**12)
        arbiter = ZKCPArbiterContract()
        chain.deploy(arbiter, operator)
        seller = chain.create_account(funded=10**9)
        buyer = chain.create_account(funded=10**9)
        return chain, arbiter, seller, buyer

    def test_zkcp_works_but_leaks_key(self, market):
        chain, arbiter, seller, buyer = market
        asset = DataAsset.create([7, 8], key=4242, nonce=1)
        protocol = ZKCPExchange(chain, arbiter)
        result = protocol.run(seller, buyer, asset, price=3000)
        assert result.success
        assert result.plaintext == [7, 8]
        # The vulnerability ZKDET fixes: the key is public chain data.
        assert result.leaked_key == asset.key

    def test_zkcp_wrong_key_rejected(self, market):
        chain, arbiter, seller, buyer = market
        asset = DataAsset.create([7, 8], key=4242, nonce=1)
        protocol = ZKCPExchange(chain, arbiter)
        buyer_before = chain.balance_of(buyer)
        result = protocol.run(seller, buyer, asset, price=3000, tamper_key=True)
        assert not result.success
        assert chain.balance_of(buyer) == buyer_before  # refunded

    def test_zkcp_underfunded_buyer_rejected(self, market):
        chain, arbiter, seller, _buyer = market
        poor = chain.create_account(funded=100)
        asset = DataAsset.create([7, 8], key=4242, nonce=1)
        result = ZKCPExchange(chain, arbiter).run(seller, poor, asset, price=3000)
        assert not result.success and not result.aborted
        assert result.reason == "payment lock failed"
        assert chain.balance_of(poor) == 100 and chain.balance_of(arbiter.address) == 0


class _LyingDuplication(Duplication):
    """Derives entries its own constraints reject: a witness no proof holds."""

    def apply(self, sources):
        return [[(v + 1) % R for v in sources[0]]]


def _pi_k(ctx, monkeypatch, bad):
    asset = DataAsset.create([3], key=0xD1CE, nonce=0x5EED)
    k_v = 0xBEEF
    h_v = (field_hash(k_v) + bad) % R
    # A wrong h_v would stop at the native pre-check; let it reach the circuit.
    monkeypatch.setattr(exchange, "field_hash", lambda value: h_v)
    c_k = asset.key_commitment(ctx.srs)
    exchange.key_negotiation_proof(ctx, asset.key, asset.key_blinder, c_k, k_v, h_v)


def _pi_e(ctx, monkeypatch, bad):
    asset = DataAsset.create([3], key=0xD1CE, nonce=0x5EED)
    if bad:  # the ciphertext no longer encrypts the plaintext
        asset = dataclasses.replace(asset, plaintext=[4])
    prove_encryption(ctx, asset)


def _pi_t(ctx, monkeypatch, bad):
    source = DataAsset.create([3, 1], key=0xD1CE, nonce=0x5EED)
    prove_transformation(ctx, [source], _LyingDuplication() if bad else Duplication())


@pytest.mark.parametrize("entry", [_pi_k, _pi_e, _pi_t], ids=["pi_k", "pi_e", "pi_t"])
class TestWitnessCheckedOnce:
    """Each prover entry point compiles without the witness check, because
    ``prove`` checks it before round 1: one check a proof, and a bad witness
    still stops before the prover commits to anything."""

    @pytest.fixture
    def checks(self, monkeypatch):
        seen = []
        check = Layout.check
        monkeypatch.setattr(Layout, "check", lambda layout, a: seen.append(a) or check(layout, a))
        return seen

    def test_a_proof_checks_its_witness_once(self, entry, snark_ctx, monkeypatch, checks):
        entry(snark_ctx, monkeypatch, bad=0)
        assert len(checks) == 1

    def test_a_bad_witness_raises_before_any_commitment(
        self, entry, snark_ctx, monkeypatch, checks
    ):
        commits = []
        monkeypatch.setattr(prover, "commit", lambda *args: commits.append(args))
        with pytest.raises(UnsatisfiedConstraintError):
            entry(snark_ctx, monkeypatch, bad=1)
        assert len(checks) == 1 and commits == []
