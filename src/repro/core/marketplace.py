"""The ZKDET marketplace facade: chain + storage + contracts + protocols.

One object wires the full system of Figure 1: a blockchain with the
ERC-721 data-token, auction, verifier and arbiter contracts deployed, a
content-addressed storage network, a shared SNARK context, and high-level
operations for the whole data lifecycle — publish, transform, trade,
trace.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from repro import telemetry
from repro.errors import ProtocolError
from repro.faults.retry import DEFAULT_POLICY
from repro.chain import Blockchain
from repro.contracts import (
    ClockAuctionContract,
    DataTokenContract,
    KeySecureArbiterContract,
    PlonkVerifierContract,
)
from repro.storage import ContentStore
from repro.core.exchange import (
    Buyer,
    ExchangeResult,
    KeySecureExchange,
    Seller,
    key_negotiation_keys,
)
from repro.core.provenance import ProvenanceGraph
from repro.core.snark import SnarkContext
from repro.core.tokens import (
    DataAsset,
    PublicAssetView,
    serialize_ciphertext,
)
from repro.core.transform_protocol import (
    EncryptionProof,
    TransformProof,
    prove_encryption,
    prove_transformation,
    verify_encryption,
    verify_transformation,
)
from repro.core.transformations import Transformation
from repro.primitives.mimc import CtrCiphertext


#: Funds of the operator and of each registered participant.
INITIAL_FUNDS = 10**12


def _proof_hash(proof) -> str:
    return hashlib.sha256(proof.to_bytes()).hexdigest()


@dataclass
class PublishedAsset:
    """An asset together with its on-chain token and pi_e."""

    asset: DataAsset
    token_id: int
    encryption_proof: EncryptionProof


@dataclass
class AuditReport:
    """Outcome of a public provenance audit of one token."""

    token_id: int
    ok: bool
    checks: list  # of (description, passed) pairs

    def failed_checks(self) -> list:
        return [desc for desc, passed in self.checks if not passed]


class ZKDETMarketplace:
    """Full-system facade; see examples/quickstart.py for a tour."""

    def __init__(self, snark: SnarkContext):
        self.snark = snark
        self.chain = Blockchain()
        self.storage = ContentStore()
        operator = self.chain.create_account(funded=INITIAL_FUNDS)
        self.operator = operator
        self.token = DataTokenContract()
        self.chain.deploy(self.token, operator)
        self.auction = ClockAuctionContract(self.token)
        self.chain.deploy(self.auction, operator)
        # The pi_k verifier key is circuit-shape fixed, so the verifier
        # contract is deployed once for the whole marketplace.
        pik_keys = key_negotiation_keys(snark)
        self.pik_verifier = PlonkVerifierContract(pik_keys.vk)
        self.chain.deploy(self.pik_verifier, operator)
        self.arbiter = KeySecureArbiterContract(self.pik_verifier)
        self.chain.deploy(self.arbiter, operator)
        # Public proof registries: full pi_e / pi_t objects keyed by token.
        # On-chain tokens store only proof hashes; the proofs themselves
        # live in public storage (here: in-process registries standing in
        # for IPFS-hosted proof blobs).
        self._pi_e_registry: dict = {}
        self._pi_t_registry: dict = {}

    # ----- participants ---------------------------------------------------------

    def register_participant(self) -> str:
        """Create and fund an account."""
        return self.chain.create_account(funded=INITIAL_FUNDS)

    def _tx(self, sender: str, method: str, *args, site: str):
        """A facade transaction against the token contract, under retry.

        Injected drops and reverts fire before the method body executes,
        so resubmission is idempotent; genuine contract failures surface
        as failed receipts and are never retried.
        """
        return DEFAULT_POLICY.run(
            lambda: self.chain.transact(sender, self.token, method, *args),
            site=site,
        )

    # ----- data lifecycle ----------------------------------------------------------

    def publish_dataset(self, owner: str, plaintext: list[int]) -> PublishedAsset:
        """Encrypt, store, prove (pi_e) and mint a dataset.

        The paper's Section III-A flow: encrypt D, upload D_hat, treat the
        URI as the ciphertext commitment, and mint the NFT credential.  The
        token records the digest of the data's KZG point [d], committed
        once here, and its entry count (:attr:`EncryptionProof.data_digest`).
        """
        with telemetry.span("marketplace.publish", entries=len(plaintext)) as root:
            asset = DataAsset.create(plaintext)
            DEFAULT_POLICY.run(
                lambda: asset.publish(self.storage, owner=owner), site="storage.put"
            )
            with telemetry.span("publish.prove", proof="pi_e"):
                pi_e = prove_encryption(self.snark, asset)
            with telemetry.span("publish.verify", proof="pi_e"):
                view = asset.public_view(self.snark.srs)
                if not verify_encryption(self.snark, view, pi_e):
                    raise ProtocolError("freshly generated pi_e failed verification")
            with telemetry.span("publish.mint") as sp:
                receipt = self._tx(
                    owner,
                    "mint",
                    asset.uri,
                    pi_e.data_digest,
                    _proof_hash(pi_e.proof),
                    site="chain.mint",
                )
                sp.set_attrs(receipt.span_attrs())
            if not receipt.status:
                raise ProtocolError("mint failed: %s" % receipt.error)
            token_id = receipt.return_value
            root.set_attr("token_id", token_id)
            self._pi_e_registry[token_id] = pi_e
            return PublishedAsset(asset, token_id, pi_e)

    def transform(
        self,
        owner: str,
        sources: list[PublishedAsset],
        transformation: Transformation,
    ) -> tuple[list[PublishedAsset], TransformProof]:
        """Apply a transformation: prove pi_t, publish the derived assets,
        prove their pi_e, and mint derived tokens with prevIds lineage."""
        if not sources:
            raise ProtocolError("transformation needs source assets")
        with telemetry.span(
            "marketplace.transform", kind=transformation.name, sources=len(sources)
        ) as root:
            return self._transform_steps(owner, sources, transformation, root)

    def _transform_steps(self, owner, sources, transformation, root):
        with telemetry.span("transform.prove", proof="pi_t"):
            derived_assets, pi_t = prove_transformation(
                self.snark, [p.asset for p in sources], transformation
            )
        with telemetry.span("transform.verify", proof="pi_t"):
            if not verify_transformation(self.snark, transformation, pi_t):
                raise ProtocolError("freshly generated pi_t failed verification")
        proof_hash = _proof_hash(pi_t.proof)
        source_ids = tuple(p.token_id for p in sources)

        published = []
        pending = []
        with telemetry.span("transform.publish_derived", count=len(derived_assets)):
            for d in derived_assets:
                DEFAULT_POLICY.run(
                    lambda d=d: d.publish(self.storage, owner=owner), site="storage.put"
                )
                pi_e = prove_encryption(self.snark, d)
                pending.append((d, pi_e))

        name = transformation.name
        if name == "aggregation":
            d, pi_e = pending[0]
            receipt = self._tx(
                owner, "aggregate", source_ids, d.uri,
                pi_e.data_digest, proof_hash, site="chain.mint",
            )
            token_ids = [receipt.return_value] if receipt.status else []
        elif name == "partition":
            parts = tuple((d.uri, pi_e.data_digest) for d, pi_e in pending)
            receipt = self._tx(
                owner, "partition", source_ids[0], parts, proof_hash,
                site="chain.mint",
            )
            token_ids = list(receipt.return_value) if receipt.status else []
        elif name == "duplication":
            d, pi_e = pending[0]
            receipt = self._tx(
                owner, "duplicate", source_ids[0], d.uri,
                pi_e.data_digest, proof_hash, site="chain.mint",
            )
            token_ids = [receipt.return_value] if receipt.status else []
        else:  # processing
            d, pi_e = pending[0]
            receipt = self._tx(
                owner, "process", source_ids, d.uri,
                pi_e.data_digest, proof_hash, site="chain.mint",
            )
            token_ids = [receipt.return_value] if receipt.status else []
        root.set_attrs(receipt.span_attrs("mint"))
        if not receipt.status:
            raise ProtocolError("on-chain transformation failed: %s" % receipt.error)
        root.set_attr("token_ids", token_ids)

        for (d, pi_e), tid in zip(pending, token_ids):
            self._pi_e_registry[tid] = pi_e
            self._pi_t_registry[tid] = (transformation, pi_t, source_ids)
            published.append(PublishedAsset(d, tid, pi_e))
        return published, pi_t

    # ----- trading --------------------------------------------------------------------

    def sell(
        self,
        seller_address: str,
        listing: PublishedAsset,
        buyer_address: str,
        price: int,
        predicate=None,
        **tamper,
    ) -> ExchangeResult:
        """Run the key-secure exchange for a published asset, then move the
        token to the buyer on success."""
        with telemetry.span(
            "marketplace.sell", token_id=listing.token_id, price=price
        ) as root:
            seller = Seller(self.snark, listing.asset, seller_address)
            view = listing.asset.public_view(self.snark.srs)
            buyer = Buyer(self.snark, view, buyer_address)
            protocol = KeySecureExchange(self.snark, self.chain, self.arbiter)
            result = protocol.run(seller, buyer, price, predicate=predicate, **tamper)
            root.set_attrs(
                success=result.success,
                aborted=result.aborted,
                gas_total=result.gas_used,
            )
            if result.success:
                with telemetry.span("sell.transfer_token") as sp:
                    receipt = self._tx(
                        seller_address, "transfer_from",
                        seller_address, buyer_address, listing.token_id,
                        site="chain.transfer",
                    )
                    sp.set_attrs(receipt.span_attrs())
                if not receipt.status:
                    raise ProtocolError("token transfer failed: %s" % receipt.error)
            return result

    # ----- traceability -----------------------------------------------------------------

    def provenance(self) -> ProvenanceGraph:
        """The current transformation DAG from chain state."""
        return ProvenanceGraph.from_token_contract(self.chain, self.token)

    def fetch_ciphertext(self, token_id: int) -> bytes:
        """Resolve a token's URI through the storage network."""
        uri = self.chain.call_view(self.token, "token_uri", token_id)
        if uri is None:
            raise ProtocolError("token %d does not exist" % token_id)
        return DEFAULT_POLICY.run(lambda: self.storage.get(uri), site="storage.get")

    def audit(self, token_id: int) -> AuditReport:
        """Full public audit of a token: storage integrity, pi_e, and the
        pi_t lineage back to every root — the buyer-side due-diligence
        procedure the paper's traceability story enables.

        Uses only public information: chain state, the storage network,
        and the published proof registries.
        """
        with telemetry.span("marketplace.audit", token_id=token_id) as root:
            report = self._audit_steps(token_id)
            root.set_attrs(ok=report.ok, checks=len(report.checks))
            return report

    def _audit_steps(self, token_id: int) -> AuditReport:
        checks = []
        commitment = self.chain.call_view(self.token, "commitment_of", token_id)
        checks.append(("token exists on chain", commitment is not None))
        if commitment is None:
            return AuditReport(token_id, False, checks)

        # 1. Storage integrity: the URI must resolve and self-verify — and
        # resolve to the ciphertext pi_e speaks about.  pi_e's statement
        # carries its own nonce and blocks, so a registry proof that
        # validly encrypts the committed dataset under another key or
        # nonce would otherwise pass while the token addresses other bytes.
        pi_e = self._pi_e_registry.get(token_id)
        stated = None if pi_e is None else CtrCiphertext(pi_e.nonce, pi_e.ciphertext_blocks)
        try:
            stored = self.fetch_ciphertext(token_id)
            resolves = stated is None or stored == serialize_ciphertext(stated)
        except Exception:
            resolves = False

        # A root token also records the hash of the pi_e it was minted
        # with (a derived one its pi_t's, step 3): a valid re-proof of the
        # same statement is not the published proof.
        own_parents = self.chain.call_view(self.token, "prev_ids", token_id)
        if pi_e is not None and not own_parents:
            hashed = self.chain.call_view(self.token, "proof_hash_of", token_id)
            resolves = resolves and hashed == _proof_hash(pi_e.proof)
        checks.append(("ciphertext resolves and matches its URI", resolves))

        # 2. pi_e: the ciphertext encrypts the committed dataset.
        checks.append(("pi_e published", pi_e is not None))
        if pi_e is not None:
            # Rebuild the public view from pi_e's own statement.
            view = PublicAssetView(
                uri=self.chain.call_view(self.token, "token_uri", token_id) or "",
                ciphertext=stated,
                data_commitment=pi_e.data_commitment,
                num_entries=len(pi_e.ciphertext_blocks),
            )
            ok = pi_e.data_digest == commitment and verify_encryption(
                self.snark, view, pi_e
            )
            checks.append(("pi_e verifies against the on-chain commitment", ok))

        # 3. pi_t lineage: every transformation edge back to the roots.
        frontier = [token_id]
        seen = set()
        while frontier:
            tid = frontier.pop()
            if tid in seen:
                continue
            seen.add(tid)
            if tid == token_id:
                parents = own_parents
            else:
                parents = self.chain.call_view(self.token, "prev_ids", tid)
            if not parents:
                continue
            record = self._pi_t_registry.get(tid)
            if record is None:
                checks.append(("pi_t published for token %d" % tid, False))
                continue
            transformation, pi_t, source_ids = record
            link_ok = verify_transformation(self.snark, transformation, pi_t)
            # The record is the one the chain minted: its sources in order,
            # its kind and the hash of its proof.
            link_ok = (
                link_ok
                and source_ids == parents
                and transformation.name == self.chain.call_view(self.token, "kind_of", tid)
                and _proof_hash(pi_t.proof)
                == self.chain.call_view(self.token, "proof_hash_of", tid)
            )
            # The points the proof links must be the ones the chain records.
            # Digests carry each dataset's entry count: a point re-declared
            # with padding zeros as entries does not match.
            parent_commits = tuple(
                self.chain.call_view(self.token, "commitment_of", p) for p in source_ids
            )
            link_ok = link_ok and parent_commits == pi_t.source_digests
            my_commit = self.chain.call_view(self.token, "commitment_of", tid)
            link_ok = link_ok and my_commit in pi_t.derived_digests
            checks.append(
                ("pi_t (%s) verifies for token %d" % (transformation.name, tid), link_ok)
            )
            frontier.extend(parents)

        return AuditReport(token_id, all(ok for _, ok in checks), checks)
