"""Quickstart: publish a dataset, trade it, trace it.

Runs the whole ZKDET pipeline on a small dataset (~2 minutes in pure
Python — every proof is a real Plonk proof over BN254):

1. a universal SRS ceremony (Plonk's one-time setup);
2. a marketplace with the contract suite deployed;
3. Alice publishes an encrypted dataset as an NFT (with proof pi_e);
4. Bob buys it through the key-secure exchange — the decryption key
   never touches the chain;
5. the provenance graph records everything.

Run:  python examples/quickstart.py
"""

import time

from repro import SnarkContext, ZKDETMarketplace


def main():
    t0 = time.time()
    print("[1/5] Running the universal setup ceremony (powers of tau)...")
    snark = SnarkContext.with_fresh_srs(8208)
    print("      SRS supports circuits up to %d constraints (%.0f s)"
          % (snark.srs.max_degree, time.time() - t0))

    print("[2/5] Deploying the marketplace (token, auction, verifier, arbiter)...")
    market = ZKDETMarketplace(snark)
    alice = market.register_participant()
    bob = market.register_participant()
    print("      alice = %s" % alice)
    print("      bob   = %s" % bob)

    print("[3/5] Alice publishes a dataset (encrypt, store, prove, mint)...")
    t0 = time.time()
    listing = market.publish_dataset(alice, plaintext=[20260705, 42])
    print("      token id    : %d" % listing.token_id)
    print("      storage URI : %s..." % listing.asset.uri[:16])
    digest = market.chain.call_view(market.token, "commitment_of", listing.token_id)
    print("      commitment  : digest of [d] %s..." % format(digest, "064x")[:16])
    print("      pi_e proved and verified in %.0f s (size %d bytes)"
          % (time.time() - t0, listing.encryption_proof.proof.size_bytes))

    print("[4/5] Bob buys it via the key-secure two-phase exchange...")
    t0 = time.time()
    result = market.sell(alice, listing, bob, price=5000)
    assert result.success, result.reason
    print("      bob decrypted: %s (%.0f s, gas %d)"
          % (result.plaintext, time.time() - t0, result.gas_used))
    masked = market.chain.call_view(market.arbiter, "masked_key", result.exchange_id)
    print("      on-chain key material: k_c = %d... (masked; the raw key "
          "never appeared on chain)" % (masked % 10**12))

    print("[5/5] Provenance from chain state...")
    graph = market.provenance()
    owner = market.chain.call_view(market.token, "owner_of", listing.token_id)
    print("      tokens: %d, DAG acyclic: %s, token %d owner is bob: %s"
          % (graph.num_tokens, graph.is_acyclic(), listing.token_id, owner == bob))
    print("Done.")


if __name__ == "__main__":
    main()
