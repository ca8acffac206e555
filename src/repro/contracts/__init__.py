"""ZKDET's on-chain layer.

Python ports of the Solidity suite the paper deploys on Rinkeby
(Section VI-A, "ZKDET-contract"): the ERC-721 data-token contract with the
``prevIds[]`` provenance extension, the clock-auction market, the exchange
arbiters (classic ZKCP and ZKDET's key-secure variant), and the on-chain
Plonk verifier.
"""

from repro.contracts.erc721 import DataTokenContract
from repro.contracts.verifier import PlonkVerifierContract
from repro.contracts.auction import ClockAuctionContract
from repro.contracts.arbiter import KeySecureArbiterContract, ZKCPArbiterContract
from repro.contracts.fairswap import FairSwapContract

__all__ = [
    "ClockAuctionContract",
    "DataTokenContract",
    "FairSwapContract",
    "KeySecureArbiterContract",
    "PlonkVerifierContract",
    "ZKCPArbiterContract",
]
