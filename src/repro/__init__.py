"""ZKDET: a traceable and privacy-preserving data exchange scheme based on
non-fungible tokens and zero-knowledge (Song, Gao, Song, Xiao — ICDCS
2022), reproduced as a complete Python library.

Layer map (bottom-up):

- ``repro.field`` / ``repro.curve`` — BN254 arithmetic and pairing;
- ``repro.kzg`` / ``repro.plonk`` — the universal-setup NIZK;
- ``repro.r1cs`` / ``repro.groth16`` — the ZKCP baseline's SNARK;
- ``repro.primitives`` / ``repro.gadgets`` — MiMC and Poseidon, native
  and in-circuit (commitments are KZG points, ``repro.kzg``);
- ``repro.chain`` / ``repro.contracts`` / ``repro.storage`` — the
  blockchain and storage substrates;
- ``repro.core`` — the ZKDET protocols and marketplace;
- ``repro.apps`` — logistic-regression and transformer proof applications;
- ``repro.costmodel`` — calibrated extrapolation to paper-scale numbers.

Quickstart::

    from repro import SnarkContext, ZKDETMarketplace

    snark = SnarkContext.with_fresh_srs(8208)
    market = ZKDETMarketplace(snark)
    alice = market.register_participant()
    listing = market.publish_dataset(alice, [101, 202])
"""

from repro.core import (
    Aggregation,
    Buyer,
    DataAsset,
    Duplication,
    KeySecureExchange,
    Partition,
    Processing,
    ProvenanceGraph,
    Seller,
    SnarkContext,
    ZKCPExchange,
    ZKDETMarketplace,
)

__version__ = "1.0.0"

__all__ = [
    "Aggregation",
    "Buyer",
    "DataAsset",
    "Duplication",
    "KeySecureExchange",
    "Partition",
    "Processing",
    "ProvenanceGraph",
    "Seller",
    "SnarkContext",
    "ZKCPExchange",
    "ZKDETMarketplace",
    "__version__",
]
