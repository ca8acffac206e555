"""Buyer-side due diligence and the ZKCP privacy leak, demonstrated.

Shows the two properties ZKDET was built for:

A. **Traceability with verification** — a buyer audits a derived asset
   from public information only (``ZKDETMarketplace.audit``): the
   content-addressed URI, pi_e, and every pi_t back to the source, each
   against the digests of [d] the chain records; the on-chain prevIds DAG
   names the lineage, and storage tampering fails the audit.

B. **Key privacy** — the same dataset sold twice: once with classic ZKCP
   (after which an uninvolved eavesdropper decrypts it straight from
   public data) and once with ZKDET's key-secure protocol (the
   eavesdropper learns nothing).

Run:  python examples/provenance_audit.py   (~30 s on two cores)
"""

from repro import Duplication, SnarkContext, ZKDETMarketplace
from repro.contracts import ZKCPArbiterContract
from repro.core.zkcp import ZKCPExchange
from repro.errors import StorageError
from repro.primitives.mimc import mimc_decrypt_ctr


def main():
    print("Setting up (SRS + marketplace)...")
    snark = SnarkContext.with_fresh_srs(8208)
    market = ZKDETMarketplace(snark)
    alice = market.register_participant()

    print("\n--- Part A: provenance audit -------------------------------")
    source = market.publish_dataset(alice, [314, 159])
    (replica,), _pi_t = market.transform(alice, [source], Duplication())
    print("source token %d -> duplication -> token %d"
          % (source.token_id, replica.token_id))

    print("Auditing token %d from public data:" % replica.token_id)
    report = market.audit(replica.token_id)
    for description, passed in report.checks:
        print("  %-52s: %s" % (description, passed))
    lineage = market.provenance().ancestors(replica.token_id) == {source.token_id}
    print("  %-52s: %s" % ("lineage recorded on chain", lineage))

    print("Tamper check: corrupting the stored ciphertext...")
    market.storage.tamper(replica.asset.uri, b"malicious bytes")
    try:
        market.storage.get(replica.asset.uri)
        print("  !!! tampering went unnoticed")
    except StorageError:
        print("  tampering detected: content no longer matches its URI")
    print("  the audit now fails: %s" % market.audit(replica.token_id).failed_checks())
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
