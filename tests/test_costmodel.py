"""Tests for the cost model: exact formulas vs. real circuits, fits."""

import pytest

from repro.errors import ReproError
from repro.costmodel import (
    CostModel,
    TimingModel,
    encryption_circuit_gates,
    encryption_circuit_size,
    key_negotiation_fold_terms,
    key_negotiation_gates,
    key_negotiation_proof_bytes,
    key_negotiation_size,
    mimc_block_gates,
    padded_circuit_size,
    poseidon_hash_gates,
    poseidon_permutation_gates,
    settlement_gas,
    transformation_circuit_gates,
    transformation_circuit_size,
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

    @pytest.mark.parametrize("entries", [1, 2, 3, 4, 8])
    def test_encryption_circuit_close(self, entries):
        from repro.core.transform_protocol import build_encryption_circuit

        builder = CircuitBuilder()
        build_encryption_circuit(builder, [0] * entries, 0, 0, 0, [0] * entries, 0, 0, 0)
        assert builder.num_gates == encryption_circuit_gates(entries)
        assert builder.compile(check=False)[0].n == encryption_circuit_size(entries)

    def test_transformation_circuit_close(self):
        from repro.core.transform_protocol import build_transformation_circuit
        from repro.core.transformations import Aggregation, Duplication, Partition

        for transformation, sources, derived in (
            (Duplication(), [4], [4]),
            (Duplication(), [8], [8]),
            (Duplication(), [3], [3]),  # one padding entry per dataset
            (Aggregation(), [2, 3], [5]),
            (Partition(sizes=(2, 3)), [5], [2, 3]),
        ):
            builder = CircuitBuilder()
            build_transformation_circuit(
                builder,
                transformation,
                [([0] * n, 0, 0) for n in sources],
                [([0] * n, 0, 0) for n in derived],
            )
            assert builder.num_gates == transformation_circuit_gates(sources, derived)
            layout = builder.compile(check=False)[0]
            assert layout.n == transformation_circuit_size(sources, derived)

    def test_key_negotiation_close(self):
        from repro.core.exchange import build_key_negotiation_circuit

        count = built_gate_count(
            lambda b: build_key_negotiation_circuit(b, 0, 0, 0, 0, 0, 0)
        )
        assert count == key_negotiation_gates()

    def test_gadget_budgets(self):
        """The per-gadget ceilings the power-of-two sizes below rest on."""
        from repro.gadgets.mimc import mimc_block

        mimc_rows = built_gate_count(lambda b: mimc_block(b, b.var(1), b.var(2)))
        assert poseidon_hash_gates(1) <= poseidon_hash_gates(2) <= 220
        assert mimc_block_gates() == mimc_rows <= 92

    def test_exchange_circuits_stay_under_their_power_of_two(self):
        """pi_k at 217 rows (n = 256: two rows a Poseidon partial round),
        and pi_e, a row a MiMC round, at n = 128 for 1 entry (97 rows), 256
        for 2 and 512 for 3 or 4, with the key and the data linked rather
        than opened: a gadget change that crosses a power of two doubles
        every prover kernel, so it fails here and not in a benchmark.  The
        built pi_k is the cost model's prediction."""
        from repro.core.exchange import build_key_negotiation_circuit
        from repro.core.transform_protocol import build_encryption_circuit

        builder = CircuitBuilder()
        build_key_negotiation_circuit(builder, 0, 0, 0, 0, 0, 0)
        assert builder.num_gates + 2 == key_negotiation_gates() + 2 == 217
        assert builder.compile(check=False)[0].n == key_negotiation_size() == 256
        for entries, gates, n in ((1, 95, 128), (2, 190, 256), (3, 286, 512), (4, 380, 512)):
            builder = CircuitBuilder()
            build_encryption_circuit(
                builder, [0] * entries, 0, 0, 0, [0] * entries, 0, 0, 0
            )
            assert builder.num_gates == gates
            assert builder.compile(check=False)[0].n == n

    def test_pi_k_verifier_terms_proof_and_gas_are_predicted(self, snark_ctx):
        """The fold's terms and the proof's bytes of the built pi_k key are
        the cost model's; against the layout before the partial-round gate
        (22 terms, 768 bytes) a settlement pays one term and 96 calldata
        bytes more: at most 7,686 gas, inside prove_exchange's 3% of
        378,192."""
        from repro.core.exchange import key_negotiation_keys
        from repro.plonk.verifier import fold_terms, verification_group_operations

        vk = key_negotiation_keys(snark_ctx).vk
        member = (vk, None, None, object())
        assert fold_terms([member]) == key_negotiation_fold_terms() == 23
        ops = verification_group_operations(vk)
        assert ops["proof_size_bytes"] == key_negotiation_proof_bytes() == 864
        delta = settlement_gas(23, 864) - settlement_gas(22, 768)
        assert delta == 7_686 < 0.03 * 378_192

    def test_fig6_transformation_sits_below_encryption(self):
        """Figure 6's ordering: pi_t well below pi_e at equal size, now that
        both link the data rather than re-open it (at the parent, which
        re-opened it, [8] -> [8] took 4,594 gates against pi_e's 4,509; with
        three rows a MiMC round pi_e(8) took 2,216 gates at n = 4,096)."""
        assert transformation_circuit_gates([8], [8]) < encryption_circuit_gates(8)
        assert (transformation_circuit_gates([8], [8]), encryption_circuit_gates(8)) == (8, 760)
        assert (transformation_circuit_size([8], [8]), encryption_circuit_size(8)) == (16, 1024)

    def test_padded_circuit_size(self):
        assert padded_circuit_size(1) == 4
        assert padded_circuit_size(5) == 8
        assert padded_circuit_size(4096) == 4096
        assert padded_circuit_size(4097) == 8192


class TestTimingModel:
    def test_fit_recovers_linear_nlogn(self):
        import math

        def truth(n):
            return 2e-3 * n * math.log2(n) + 0.5

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
