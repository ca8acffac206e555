"""Buyer-side due diligence and the ZKCP privacy leak, demonstrated.

Shows the two properties ZKDET was built for:

A. **Traceability with verification** — a buyer audits a derived asset
   from public information only: walks the on-chain prevIds DAG, verifies
   the pi_t proof chain back to the source commitment [d], verifies pi_e, and
   detects storage tampering through the content-addressed URI.

B. **Key privacy** — the same dataset sold twice: once with classic ZKCP
   (after which an uninvolved eavesdropper decrypts it straight from
   public data) and once with ZKDET's key-secure protocol (the
   eavesdropper learns nothing).

Run:  python examples/provenance_audit.py   (~30 s on two cores)
"""

from repro import Duplication, SnarkContext, ZKDETMarketplace
from repro.contracts import ZKCPArbiterContract
from repro.core.transform_protocol import verify_encryption, verify_proof_chain
from repro.core.zkcp import ZKCPExchange
from repro.errors import StorageError
from repro.primitives.mimc import mimc_decrypt_ctr


def main():
    print("Setting up (SRS + marketplace)...")
    snark = SnarkContext.with_fresh_srs(8208)
    market = ZKDETMarketplace(snark)
    alice = market.register_participant()
    eve = market.register_participant()  # a curious third party

    print("\n--- Part A: provenance audit -------------------------------")
    source = market.publish_dataset(alice, [314, 159])
    replicas, pi_t = market.transform(alice, [source], Duplication())
    replica = replicas[0]
    print("source token %d -> duplication -> token %d"
          % (source.token_id, replica.token_id))

    print("Auditing token %d from public data:" % replica.token_id)
    graph = market.provenance()
    # The chain records the digest of each dataset's [d] and entry count;
    # pi_t links the points and declares the counts.
    root, tail = (
        market.chain.call_view(market.token, "commitment_of", t.token_id)
        for t in (source, replica)
    )
    ok_chain = verify_proof_chain(snark, [(Duplication(), pi_t)], root, tail)
    print("  pi_t chain source->replica verifies : %s" % ok_chain)
    view = replica.asset.public_view(snark.srs)
    ok_enc = verify_encryption(snark, view, replica.encryption_proof)
    print("  pi_e for the replica verifies       : %s" % ok_enc)
    print("  lineage recorded on chain           : %s"
          % (graph.ancestors(replica.token_id) == {source.token_id}))

    print("Tamper check: corrupting the stored ciphertext...")
    market.storage.tamper(replica.asset.uri, b"malicious bytes")
    try:
        market.storage.get(replica.asset.uri)
        print("  !!! tampering went unnoticed")
    except StorageError:
        print("  tampering detected: content no longer matches its URI")
    # Restore for part B.
    market.storage.put(replica.asset.serialized_ciphertext(), owner=alice)

    print("\n--- Part B: ZKCP leak vs key-secure exchange ---------------")
    bob = market.register_participant()
    zkcp_arbiter = ZKCPArbiterContract()
    market.chain.deploy(zkcp_arbiter, alice)

    print("Selling via classic ZKCP (Groth16 + hash lock)...")
    zkcp = ZKCPExchange(market.chain, zkcp_arbiter)
    z = zkcp.run(alice, bob, source.asset, price=1000)
    assert z.success
    print("  buyer got: %s" % z.plaintext)
    # Eve reads everything from PUBLIC data: the chain and the store.
    leaked_key = market.chain.call_view(zkcp_arbiter, "revealed_key", 1)
    stolen = mimc_decrypt_ctr(leaked_key, source.asset.ciphertext)
    print("  EVE decrypted the same data from public chain state: %s" % stolen)

    print("Selling via ZKDET's key-secure protocol...")
    r = market.sell(alice, replica, bob, price=1000)
    assert r.success, r.reason
    masked = market.chain.call_view(market.arbiter, "masked_key", r.exchange_id)
    garbage = mimc_decrypt_ctr(masked, replica.asset.ciphertext)
    print("  buyer got: %s" % r.plaintext)
    print("  EVE tries the only on-chain value k_c and gets garbage: %s..."
          % [str(v)[:8] for v in garbage])
    print("Done: same fairness, no leak.")


if __name__ == "__main__":
    main()
