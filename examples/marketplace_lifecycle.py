"""Full data-asset lifecycle: transform, auction, trace, burn.

The scenario the paper's introduction motivates — a data broker composes
assets from multiple providers and sells derived products:

1. two providers publish source datasets;
2. a broker buys both, aggregates them (proof pi_t: aggregation), then
   partitions the aggregate into two slices (pi_t: partition);
3. one slice is sold through a descending-price clock auction;
4. the provenance DAG shows the full history; the broker burns the other
   slice, taking it out of circulation.

Run:  python examples/marketplace_lifecycle.py   (~40 s on two cores)
"""

import time

from repro import Aggregation, Partition, SnarkContext, ZKDETMarketplace


def main():
    print("Setting up (SRS + marketplace)...")
    snark = SnarkContext.with_fresh_srs(8208)
    market = ZKDETMarketplace(snark)
    provider_a = market.register_participant()
    provider_b = market.register_participant()
    broker = market.register_participant()
    trader = market.register_participant()

    print("Providers publish source datasets...")
    src_a = market.publish_dataset(provider_a, [11, 12])
    src_b = market.publish_dataset(provider_b, [21, 22])
    print("  provider A minted token %d, provider B minted token %d"
          % (src_a.token_id, src_b.token_id))

    print("Broker buys both sources via key-secure exchanges...")
    for owner, listing in ((provider_a, src_a), (provider_b, src_b)):
        result = market.sell(owner, listing, broker, price=2000)
        assert result.success, result.reason
    print("  broker now owns tokens %d and %d" % (src_a.token_id, src_b.token_id))

    print("Broker aggregates the two datasets (pi_t: aggregation)...")
    t0 = time.time()
    merged, pi_agg = market.transform(broker, [src_a, src_b], Aggregation())
    print("  aggregate token %d holds %d entries (%.0f s)"
          % (merged[0].token_id, len(merged[0].asset.plaintext), time.time() - t0))

    print("Broker partitions the aggregate into 2 slices (pi_t: partition)...")
    t0 = time.time()
    slices, pi_part = market.transform(
        broker, merged, Partition(sizes=(2, 2))
    )
    print("  slice tokens %s (%.0f s)"
          % ([s.token_id for s in slices], time.time() - t0))

    print("Broker lists slice %d in a clock auction..." % slices[0].token_id)
    chain, auction, token = market.chain, market.auction, market.token
    chain.transact(broker, token, "approve", auction.address, slices[0].token_id)
    aid = chain.transact(
        broker, auction, "create_auction", slices[0].token_id, 10_000, 1_000, 500
    ).return_value
    chain.seal_block()
    chain.seal_block()  # the clock ticks down with each block
    price = chain.call_view(auction, "current_price", aid)
    print("  price after 2 blocks: %d" % price)
    receipt = chain.transact(trader, auction, "bid", aid, value=price)
    assert receipt.status
    print("  trader won slice %d at %d" % (slices[0].token_id, receipt.return_value))

    print("Provenance audit from public chain state:")
    graph = market.provenance()
    for tid, kind in graph.transformation_history(slices[0].token_id):
        print("  token %d  <- %s" % (tid, kind))
    print("  ultimate sources: %s" % sorted(graph.sources_of(slices[0].token_id)))

    print("Broker burns the unsold slice %d..." % slices[1].token_id)
    chain.transact(broker, token, "burn", slices[1].token_id)
    print("  burned: %s (lineage stays on chain: ancestors %s)"
          % (chain.call_view(token, "is_burned", slices[1].token_id),
             sorted(market.provenance().ancestors(slices[1].token_id))))
    print("Done. Total chain gas spent: %d"
          % sum(r.gas_used for r in chain.receipts))


if __name__ == "__main__":
    main()
