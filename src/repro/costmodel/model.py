"""Constraint-count formulas and calibrated timing models.

The gate-count formulas are exact for the library's gadgets (tests verify
them against circuits built for real); the timing side fits measured
(circuit size, seconds) points and extrapolates, under Plonk's known
complexity (prover ~ O(n log n), dominated in practice by the linear MSM
term; verification O(1)).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.chain.gas import DEFAULT_SCHEDULE
from repro.errors import ReproError
from repro.kzg.commit import message_slots
from repro.plonk.circuit import linked_size
from repro.plonk.proof import proof_size_bytes
from repro.primitives.mimc import ROUNDS as MIMC_ROUNDS
from repro.primitives.poseidon import FULL_ROUNDS, PARTIAL_ROUNDS

# ----- exact gate counts for the gadget library ---------------------------------


def mimc_block_gates(rounds: int = MIMC_ROUNDS) -> int:
    """One MiMC permutation: one round gate a round, plus the final key
    addition, which is the row the last round writes its output into."""
    return rounds + 1


def mimc_ctr_element_gates(rounds: int = MIMC_ROUNDS) -> int:
    """One CTR element: counter offset + block + keystream addition."""
    return mimc_block_gates(rounds) + 2


#: Gates of one Poseidon full round over three live lanes whose round
#: constants are added: three 2-gate S-boxes (x^3, then x^5, on q3) and
#: three 3-term mixing rows, which add the next round's constants.
_POSEIDON_FULL_ROUND = 3 * 2 + 3 * 2

#: Gates of one partial round: the partial-round gate's two rows.
_POSEIDON_PARTIAL_ROUND = 2

#: Round-constant additions a permutation of three live wires pays: its
#: inputs' (three) and the two lanes a partial round leaves without one,
#: before the closing full rounds (lane 0's rides in the last next-a gate).
_POSEIDON_CONSTANT_GATES = 3 + 2


def poseidon_permutation_gates() -> int:
    """One width-3 Poseidon permutation of three live wires (the Merkle
    node, and every sponge chunk after the first)."""
    return (
        FULL_ROUNDS * _POSEIDON_FULL_ROUND
        + PARTIAL_ROUNDS * _POSEIDON_PARTIAL_ROUND
        + _POSEIDON_CONSTANT_GATES
    )


def poseidon_hash_gates(num_inputs: int) -> int:
    """Sponge hash of ``num_inputs`` wires, exactly.

    The first chunk is absorbed into build-time constants (length tag,
    zero padding), so its opening round adds constants and S-boxes only
    on the live lanes and has one-gate mixing rows; later chunks pay a
    full permutation plus one absorb-add per input.  Hashing nothing is
    one constant gate.
    """
    if num_inputs == 0:
        return 1
    live = min(num_inputs, 2)
    opening = 3 * live + 3  # per live lane a constant and an S-box; 3 mixing rows
    first = poseidon_permutation_gates() - _POSEIDON_FULL_ROUND - 3 + opening
    later_chunks = (num_inputs - 1) // 2
    return first + later_chunks * poseidon_permutation_gates() + num_inputs - live


def linked_circuit_size(public: int, gates: int, message_sizes: list[int]) -> int:
    """The padded n of a circuit with ``public`` inputs, ``gates`` gates and
    the given linked messages (:func:`repro.plonk.circuit.linked_size`, the
    builder's own sizing).  It does not count the gate-free rows a Poseidon
    partial round leaves before a reserved link row: a circuit those rows
    push past n compiles at 2n (``test_gate_free_rows_that_overflow_n_double_it``).
    pi_k links one scalar, which reserves no row past its public inputs."""
    return linked_size(public, gates, [message_slots(m) for m in message_sizes])


def encryption_circuit_gates(num_entries: int) -> int:
    """The pi_e circuit: CTR encryption and one equality per block.  The
    key and the data are linked to their KZG points, which costs no gate
    beyond the constant 0 that padding entries are linked to."""
    padding = message_slots(num_entries) != num_entries
    return num_entries * (mimc_ctr_element_gates() + 1) + padding


def encryption_circuit_size(num_entries: int) -> int:
    """n of pi_e: the blocks and the nonce are its public inputs."""
    gates = encryption_circuit_gates(num_entries)
    return linked_circuit_size(num_entries + 1, gates, [1, num_entries])


def transformation_circuit_gates(source_sizes: list[int], derived_sizes: list[int]) -> int:
    """A pi_t circuit for the structural transformations (dup/agg/part):
    one equality per derived element, every dataset linked (plus the
    padding entries' constant 0)."""
    sizes = list(source_sizes) + list(derived_sizes)
    return sum(derived_sizes) + any(message_slots(m) != m for m in sizes)


def transformation_circuit_size(source_sizes: list[int], derived_sizes: list[int]) -> int:
    """n of pi_t, which has no public input."""
    sizes = list(source_sizes) + list(derived_sizes)
    return linked_circuit_size(0, transformation_circuit_gates(source_sizes, derived_sizes), sizes)


def key_negotiation_gates() -> int:
    """The pi_k circuit: H(k_v) + three gates: the h_v equality and the
    masking equation k_c = k + k_v (add, equality).  The key is linked to
    its KZG point in row 0's b slot, which costs no gate."""
    return poseidon_hash_gates(1) + 3


def key_negotiation_size() -> int:
    """n of pi_k: (k_c, h_v) are its public inputs, the key its one link."""
    return linked_circuit_size(2, key_negotiation_gates(), [1])


#: Of a one-member fold, the terms every proof brings (its commitments,
#: the two openings on both sides) and the key points every key has: the
#: nine commitments, the generator.
_PROOF_TERMS, _KEY_POINTS = 11, 10


def key_negotiation_fold_terms() -> int:
    """The (point, scalar) terms one pi_k's fold multiplies and adds
    (:func:`repro.plonk.verifier.fold_terms`): its own, the key's points
    but [qM], the identity (no S-box row multiplies two wires), plus
    [qnext] and [qpartial], and [k]."""
    return _PROOF_TERMS + _KEY_POINTS - 1 + 2 + 1


def key_negotiation_proof_bytes() -> int:
    """pi_k's encoding: it opens a, b and c at zeta omega."""
    return proof_size_bytes((0, 1, 2))


def settlement_gas(fold_terms: int, proof_bytes: int) -> int:
    """The part of a one-member ``verify_batch`` settlement that depends on
    the circuit: an ECMUL and an ECADD per fold term (a batch discounts no
    unit scalar) and the proof's calldata, counted as if no byte were zero
    (an upper bound: ~1/256 of a proof's bytes are)."""
    per_term = DEFAULT_SCHEDULE.ecmul + DEFAULT_SCHEDULE.ecadd
    return fold_terms * per_term + proof_bytes * DEFAULT_SCHEDULE.calldata_nonzero_byte


def logistic_circuit_gates(num_points: int, num_features: int, fp_mul_gates: int = 95) -> int:
    """Approximate pi_t rows for the LR convergence predicate.

    Two loss evaluations + one gradient step; each sample costs about
    (features + 16) fixed-point multiplications (sigmoid deg-5 + two
    deg-5 logs + products).  ``fp_mul_gates`` is the per-multiplication
    cost of the default format (dominated by the range decompositions).
    The dataset and the model are linked: the rows j n/m the wider one
    reserves.
    """
    per_sample_muls = 2 * (num_features + 12) + (num_features + 2)
    return num_points * per_sample_muls * fp_mul_gates + message_slots(
        num_points * (num_features + 1)
    )


def transformer_circuit_gates(seq_len: int, d_model: int, d_ff: int, fp_mul_gates: int = 95) -> int:
    """Approximate pi_t rows for one transformer block inference proof: the
    input, the weights and the output are linked (the widest message's
    reserved rows)."""
    qkv = 3 * seq_len * d_model * d_model
    scores = seq_len * seq_len * (d_model + 1)
    softmax = seq_len * seq_len * 6 + seq_len * 8
    weighted = seq_len * seq_len * d_model
    ffn = seq_len * (d_model * d_ff * 2 + d_ff)
    muls = qkv + scores + softmax + weighted + ffn
    params = 3 * d_model**2 + 2 * d_model * d_ff + d_ff + d_model
    return muls * fp_mul_gates + message_slots(max(seq_len * d_model, params))


def padded_circuit_size(gates: int) -> int:
    """Plonk pads to the next power of two (minimum 4)."""
    n = 4
    while n < gates:
        n <<= 1
    return n


# ----- measured pairing cost ------------------------------------------------------


def measure_pairing_seconds(pairs: int = 2, repeats: int = 3) -> float:
    """Wall-clock seconds of one ``pairs``-way pairing product check.

    Runs the engine's real ``pairing_check`` kernel on small generator
    multiples and returns the fastest of ``repeats`` runs.  This is the
    *measured* counterpart to the counted op numbers in the
    ``verification_group_operations`` tables: a verifier checking k pairs
    (one interleaved Miller loop, one final exponentiation) costs roughly
    ``measure_pairing_seconds(k)``, with the G2-side
    preparation amortised by the engine's prepared-G2 cache exactly as it
    is in real verification.
    """
    import time

    from repro.backend import get_engine
    from repro.curve.g1 import G1
    from repro.curve.g2 import G2

    if pairs < 1:
        raise ReproError("a pairing check needs at least one pair")
    engine = get_engine()
    g1, g2 = G1.generator(), G2.generator()
    # Non-degenerate product that still equals one, so the check follows
    # the verifier's real success path: prod e(k*G1, G2) * e(-G1, sum*G2).
    # The closing pair carries the sum on its G2 side: with every pair on
    # the same Q and the P's summing to zero the odd powers of w cancel in
    # the interleaved loop, the accumulator stays in F_q6, and multiplying
    # zeros is cheaper than anything a verifier sees.
    scalars = list(range(2, pairs + 1))
    inputs = [(g1 * k, g2) for k in scalars]
    inputs.append((-g1, g2 * (sum(scalars) or 1)))
    if not scalars:  # pairs == 1: a single deliberately-failing pair
        inputs = [(g1, g2)]
    best = float("inf")
    for _ in range(max(1, repeats)):
        start = time.perf_counter()
        engine.pairing_check(inputs)
        best = min(best, time.perf_counter() - start)
    return best


# ----- timing models --------------------------------------------------------------


@dataclass
class TimingModel:
    """A per-operation time model fit from measured (size, seconds) points.

    Fits t(n) = a * n * log2(n) + b — the Plonk prover/setup shape — by
    least squares on the transformed feature; ``constant=True`` fits a
    flat model (verification)."""

    a: float = 0.0
    b: float = 0.0
    constant: bool = False

    @staticmethod
    def fit(points: list[tuple[int, float]], constant: bool = False) -> "TimingModel":
        if not points:
            raise ReproError("cannot fit a timing model without measurements")
        if constant or len(points) == 1:
            mean = sum(t for _, t in points) / len(points)
            return TimingModel(a=0.0, b=mean, constant=True)
        import math

        xs = [n * math.log2(max(n, 2)) for n, _ in points]
        ys = [t for _, t in points]
        n = len(points)
        sx = sum(xs)
        sy = sum(ys)
        sxx = sum(x * x for x in xs)
        sxy = sum(x * y for x, y in zip(xs, ys))
        denom = n * sxx - sx * sx
        if denom == 0:
            return TimingModel(a=0.0, b=sy / n, constant=True)
        a = (n * sxy - sx * sy) / denom
        b = (sy - a * sx) / n
        return TimingModel(a=a, b=b)

    def predict(self, n: int) -> float:
        if self.constant:
            return self.b
        import math

        return max(0.0, self.a * n * math.log2(max(n, 2)) + self.b)


@dataclass
class CostModel:
    """Bundled timing models for setup, proving and verification."""

    setup: TimingModel
    prove: TimingModel
    verify: TimingModel

    @staticmethod
    def from_measurements(
        setup_points: list[tuple[int, float]],
        prove_points: list[tuple[int, float]],
        verify_points: list[tuple[int, float]],
    ) -> "CostModel":
        return CostModel(
            setup=TimingModel.fit(setup_points),
            prove=TimingModel.fit(prove_points),
            verify=TimingModel.fit(verify_points, constant=True),
        )

    def report_row(self, gates: int) -> dict:
        """Predicted costs for a circuit with ``gates`` raw constraints
        and no round gates."""
        n = padded_circuit_size(gates)
        return {
            "gates": gates,
            "padded_n": n,
            "setup_seconds": self.setup.predict(n),
            "prove_seconds": self.prove.predict(n),
            "verify_seconds": self.verify.predict(n),
            "proof_size_bytes": proof_size_bytes(),
        }
