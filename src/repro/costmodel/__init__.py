"""Analytic cost model: constraints -> time, gas and proof size.

Bridges the scale gap between a pure-Python prover and the paper's
testbed: closed-form constraint counts (validated against the real
circuit builder in tests) plus timing models calibrated from measured
small-scale runs let the benchmark harness reproduce the paper-scale rows
of Figures 5-6 and Table I alongside the genuinely measured points.
"""

from repro.costmodel.model import (
    CostModel,
    TimingModel,
    encryption_circuit_gates,
    encryption_circuit_size,
    key_negotiation_fold_terms,
    key_negotiation_gates,
    key_negotiation_proof_bytes,
    key_negotiation_size,
    linked_circuit_size,
    logistic_circuit_gates,
    measure_pairing_seconds,
    mimc_block_gates,
    mimc_ctr_element_gates,
    padded_circuit_size,
    poseidon_hash_gates,
    poseidon_permutation_gates,
    settlement_gas,
    transformation_circuit_gates,
    transformation_circuit_size,
    transformer_circuit_gates,
)

__all__ = [
    "CostModel",
    "TimingModel",
    "encryption_circuit_gates",
    "encryption_circuit_size",
    "key_negotiation_fold_terms",
    "key_negotiation_gates",
    "key_negotiation_proof_bytes",
    "key_negotiation_size",
    "linked_circuit_size",
    "logistic_circuit_gates",
    "measure_pairing_seconds",
    "mimc_block_gates",
    "mimc_ctr_element_gates",
    "padded_circuit_size",
    "poseidon_hash_gates",
    "poseidon_permutation_gates",
    "settlement_gas",
    "transformation_circuit_gates",
    "transformation_circuit_size",
    "transformer_circuit_gates",
]
