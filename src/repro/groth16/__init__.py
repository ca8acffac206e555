"""Groth16 zkSNARK (the baseline the ZKCP protocol uses).

Unlike Plonk, Groth16 requires a per-circuit trusted setup, and its
verifier performs an MSM over the public inputs — 3 pairings plus ell
G1 exponentiations, versus Plonk's flat 2 pairings + 18 exponentiations.
That asymmetry is exactly what Figure 7 of the paper compares.
"""

from repro.groth16.qap import QAP
from repro.groth16.protocol import (
    Groth16Proof,
    Groth16ProvingKey,
    Groth16VerifyingKey,
    groth16_prove,
    groth16_setup,
    groth16_verify,
    verification_group_operations,
)

__all__ = [
    "Groth16Proof",
    "Groth16ProvingKey",
    "Groth16VerifyingKey",
    "QAP",
    "groth16_prove",
    "groth16_setup",
    "groth16_verify",
    "verification_group_operations",
]
