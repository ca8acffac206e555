"""Tests for the cost model: exact formulas vs. real circuits, fits."""

import pytest

from repro.errors import ReproError
from repro.costmodel import (
    CostModel,
    TimingModel,
    commitment_open_gates,
    encryption_circuit_gates,
    key_negotiation_gates,
    mimc_block_gates,
    padded_circuit_size,
    poseidon_hash_gates,
    poseidon_permutation_gates,
    transformation_circuit_gates,
)
from repro.plonk.circuit import CircuitBuilder


def built_gate_count(build_fn) -> int:
    builder = CircuitBuilder()
    build_fn(builder)
    return builder.num_gates


class TestGateFormulas:
    def test_mimc_block_exact(self):
        from repro.gadgets.mimc import mimc_block

        count = built_gate_count(lambda b: mimc_block(b, b.var(1), b.var(2)))
        assert count == mimc_block_gates()

    def test_poseidon_permutation_exact(self):
        from repro.gadgets.poseidon import poseidon_permutation

        count = built_gate_count(
            lambda b: poseidon_permutation(b, [b.var(1), b.var(2), b.var(3)])
        )
        assert count == poseidon_permutation_gates()

    @pytest.mark.parametrize("num_inputs", [1, 2, 3, 5])
    def test_poseidon_hash_within_constant(self, num_inputs):
        from repro.gadgets.poseidon import poseidon_hash_gadget

        count = built_gate_count(
            lambda b: poseidon_hash_gadget(b, [b.var(i + 1) for i in range(num_inputs)])
        )
        # Exact: the length tag and zero padding fold into coefficients,
        # so there are no shared constant gates to approximate.
        assert count == poseidon_hash_gates(num_inputs)

    @pytest.mark.parametrize("entries", [1, 2, 4])
    def test_encryption_circuit_close(self, entries):
        from repro.core.transform_protocol import build_encryption_circuit

        count = built_gate_count(
            lambda b: build_encryption_circuit(
                b, [0] * entries, 0, 0, 0, [0] * entries, 0, 0, 0
            )
        )
        assert count == encryption_circuit_gates(entries)

    def test_transformation_circuit_close(self):
        from repro.core.transform_protocol import build_transformation_circuit
        from repro.core.transformations import Duplication

        count = built_gate_count(
            lambda b: build_transformation_circuit(
                b, Duplication(), [([0] * 4, 0, 0)], [([0] * 4, 0, 0)]
            )
        )
        assert count == transformation_circuit_gates([4], [4])

    def test_key_negotiation_close(self):
        from repro.core.exchange import build_key_negotiation_circuit

        count = built_gate_count(
            lambda b: build_key_negotiation_circuit(b, 0, 0, 0, 0, 0, 0)
        )
        assert count == key_negotiation_gates()

    def test_gadget_budgets(self):
        """The per-gadget ceilings the power-of-two sizes below rest on."""
        from repro.gadgets.mimc import constraints_per_block

        assert poseidon_hash_gates(1) <= poseidon_hash_gates(2) <= 460
        assert mimc_block_gates() == constraints_per_block() <= 280

    def test_exchange_circuits_stay_under_their_power_of_two(self):
        """pi_k at n=512, a 1-entry pi_e at n=1024 and a 2-entry pi_e at
        n=2048, with the key linked rather than opened: a gadget change
        that crosses a power of two doubles every prover kernel, so it
        fails here and not in a benchmark."""
        from repro.core.exchange import build_key_negotiation_circuit
        from repro.core.transform_protocol import build_encryption_circuit

        builder = CircuitBuilder()
        build_key_negotiation_circuit(builder, 0, 0, 0, 0, 0, 0)
        assert builder.compile(check=False)[0].n == 512
        for entries, n in ((1, 1024), (2, 2048)):
            builder = CircuitBuilder()
            build_encryption_circuit(
                builder, [0] * entries, 0, 0, 0, [0] * entries, 0, 0, 0
            )
            assert builder.compile(check=False)[0].n == n

    def test_commitment_open_monotone(self):
        assert commitment_open_gates(10) > commitment_open_gates(2)

    def test_padded_circuit_size(self):
        assert padded_circuit_size(1) == 4
        assert padded_circuit_size(5) == 8
        assert padded_circuit_size(4096) == 4096
        assert padded_circuit_size(4097) == 8192


class TestTimingModel:
    def test_fit_recovers_linear_nlogn(self):
        import math

        truth = lambda n: 2e-3 * n * math.log2(n) + 0.5
        points = [(n, truth(n)) for n in (64, 256, 1024, 4096)]
        model = TimingModel.fit(points)
        predicted = model.predict(16384)
        assert abs(predicted - truth(16384)) / truth(16384) < 0.01

    def test_constant_fit(self):
        model = TimingModel.fit([(64, 0.5), (1024, 0.52), (4096, 0.48)], constant=True)
        assert abs(model.predict(10**6) - 0.5) < 0.02

    def test_single_point_degenerates_to_constant(self):
        model = TimingModel.fit([(64, 1.0)])
        assert model.predict(1024) == 1.0

    def test_empty_fit_rejected(self):
        with pytest.raises(ReproError):
            TimingModel.fit([])

    def test_cost_model_report(self):
        cm = CostModel.from_measurements(
            setup_points=[(64, 0.2), (256, 0.8), (1024, 3.0)],
            prove_points=[(64, 0.4), (256, 1.4), (1024, 5.0)],
            verify_points=[(64, 0.5), (1024, 0.5)],
        )
        row = cm.report_row(gates=3000)
        assert row["padded_n"] == 4096
        assert row["prove_seconds"] > row["setup_seconds"] > 0
        assert row["verify_seconds"] == 0.5
        assert row["proof_size_bytes"] == 768
        # Predictions grow with circuit size; verification does not.
        bigger = cm.report_row(gates=100000)
        assert bigger["prove_seconds"] > row["prove_seconds"]
        assert bigger["verify_seconds"] == row["verify_seconds"]
