"""Layer-2 streaming purchases with attested sources.

The extensions the paper points at but does not build:

- **Oracle attestation** (Section IV-F cites DECO): source datasets get
  their origin countersigned by an oracle committee before listing;
- **Payment channels** (Section I cites Layer-2 scaling): a buyer who
  purchases many datasets from one seller opens a channel once, streams
  signed off-chain vouchers per purchase, and settles a single on-chain
  transaction — compare the gas totals printed at the end.

Run:  python examples/streaming_purchases.py   (fast: no SNARKs needed)
"""

from repro.chain import Blockchain
from repro.contracts import OracleCommitteeContract, PaymentChannelContract
from repro.contracts.channel import voucher_message
from repro.contracts.oracle import attestation_message
from repro.primitives.babyjubjub import schnorr_keygen, schnorr_sign
from repro.core.tokens import DataAsset, commitment_digest
from repro.kzg import SRS

NUM_PURCHASES = 10
PRICE = 500


def main():
    chain = Blockchain()
    seller = chain.create_account(funded=10**9)
    buyer = chain.create_account(funded=10**9)

    print("Registering an oracle committee (threshold 2 of 3)...")
    committee = OracleCommitteeContract(threshold=2)
    chain.deploy(committee, seller)
    oracles = []
    for i in range(3):
        addr = chain.create_account(funded=10**9)
        sk, pk = schnorr_keygen(sk=5000 + i)
        chain.transact(addr, committee, "register_oracle", pk.x, pk.y)
        oracles.append((addr, sk))

    print("Seller gets a source dataset's origin attested...")
    # The claim names the dataset by the digest of its KZG commitment [d]
    # and entry count, the value its data token records (a tiny SRS
    # suffices for 3 entries).
    source = DataAsset.create([11, 22, 33])
    point = source.data_commitment(SRS.generate(8, tau=0xFEED5))
    c = commitment_digest(point, len(source.plaintext))
    origin_tag = 0xFEED  # e.g. "api.weather.gov/2026-07"
    for addr, sk in oracles[:2]:
        sig = schnorr_sign(sk, attestation_message(c, origin_tag))
        chain.transact(
            addr, committee, "attest", c, origin_tag,
            sig.r_point.x, sig.r_point.y, sig.s,
        )
    print("  attested: %s (%d signatures)"
          % (chain.call_view(committee, "is_attested", c, origin_tag),
             chain.call_view(committee, "attestation_count", c, origin_tag)))

    print("Buyer opens a payment channel for %d purchases..." % NUM_PURCHASES)
    channels = PaymentChannelContract()
    chain.deploy(channels, seller)
    buyer_sk, buyer_pk = schnorr_keygen(sk=777777)
    open_receipt = chain.transact(
        buyer, channels, "open_channel", seller, buyer_pk.x, buyer_pk.y, 50,
        value=NUM_PURCHASES * PRICE,
    )
    cid = open_receipt.return_value

    print("Streaming %d off-chain vouchers (zero gas each)..." % NUM_PURCHASES)
    voucher = None
    for i in range(1, NUM_PURCHASES + 1):
        cumulative = i * PRICE
        voucher = schnorr_sign(buyer_sk, voucher_message(cid, cumulative))
        # ... dataset i is delivered off-chain in exchange for the voucher.
    print("  final voucher covers %d" % (NUM_PURCHASES * PRICE))

    print("Seller settles the channel in ONE transaction...")
    close_receipt = chain.transact(
        seller, channels, "close", cid, NUM_PURCHASES * PRICE,
        voucher.r_point.x, voucher.r_point.y, voucher.s,
    )
    assert close_receipt.status, close_receipt.error

    channel_gas = open_receipt.gas_used + close_receipt.gas_used
    per_tx_gas = 21000 + 30000  # typical escrowed payment per purchase
    naive_gas = NUM_PURCHASES * per_tx_gas
    print("  gas via channel : %7d (open + close)" % channel_gas)
    print("  gas via %2d txs  : %7d (estimated)" % (NUM_PURCHASES, naive_gas))
    print("  saving          : %.0f%%" % (100 * (1 - channel_gas / naive_gas)))
    print("Done.")


if __name__ == "__main__":
    main()
