"""Figure 6: proof-generation time vs. data size.

Three series, as in the paper:

- pi_e / pi_p (proofs of encryption) — grows with the dataset: the paper
  reports ~3 minutes for a 5 MB dataset (native prover);
- pi_t (transformation proofs for dup/agg/part, "essentially data
  comparisons") — ~10 s for 5 MB;
- pi_k (key negotiation) — constant, ~120 ms, independent of data size.

We prove for real at 2-8 entries, fit the model, and extrapolate to the
paper's 1 MB / 5 MB points.  Shape claims reproduced: pi_e and pi_t grow
linearly with data, pi_k is flat and cheapest.

Known deviation (see EXPERIMENTS.md): the paper's pi_t is ~18x cheaper
than pi_e because its CP-NIZK links commitments algebraically
(LegoSNARK-style), making openings free in-circuit; our commitments are
Poseidon hashes re-computed in-circuit, so pi_t pays the opening cost and
lands close to pi_e rather than far below it.  The pi_e > pi_t ordering
still holds (MiMC re-encryption is pi_e-only), just with a smaller gap.
"""

import time

from conftest import engine_label, print_table, run_once

from repro.costmodel import (
    TimingModel,
    encryption_circuit_gates,
    padded_circuit_size,
    transformation_circuit_gates,
)
from repro.core.exchange import build_key_negotiation_circuit
from repro.core.tokens import DataAsset
from repro.core.transform_protocol import prove_encryption, prove_transformation
from repro.core.transformations import Duplication
from repro.plonk.circuit import CircuitBuilder
from repro.plonk.prover import prove

ENTRY_BYTES = 31
MEGABYTE_ENTRIES = (1 << 20) // ENTRY_BYTES

PAPER = {
    "pi_e at 5 MB": "~180 s",
    "pi_t at 5 MB": "~10 s",
    "pi_k": "~0.12 s",
}


def test_fig6_proof_generation(benchmark, snark_ctx):
    results = {}

    def sweep():
        # pi_e series (encryption proofs).
        pi_e = []
        for entries in (2, 4, 8):
            asset = DataAsset.create(list(range(1, entries + 1)), key=7, nonce=3)
            prove_encryption(snark_ctx, asset)  # warm the key cache
            start = time.perf_counter()
            prove_encryption(snark_ctx, asset)
            n = padded_circuit_size(encryption_circuit_gates(entries))
            pi_e.append((entries, n, time.perf_counter() - start))
        results["pi_e"] = pi_e

        # pi_t series (duplication — "essentially data comparisons").
        pi_t = []
        for entries in (2, 4, 8):
            asset = DataAsset.create(list(range(1, entries + 1)), key=7, nonce=3)
            prove_transformation(snark_ctx, [asset], Duplication())
            start = time.perf_counter()
            prove_transformation(snark_ctx, [asset], Duplication())
            n = padded_circuit_size(transformation_circuit_gates([entries], [entries]))
            pi_t.append((entries, n, time.perf_counter() - start))
        results["pi_t"] = pi_t

        # pi_k (constant size).
        def prove_pik():
            builder = CircuitBuilder()
            build_key_negotiation_circuit(builder, 12, 34, 56, 0, 0, 0)
            layout, assignment = builder.compile(check=False)
            keys = snark_ctx.keys_for(layout)
            # pi_k needs a *satisfying* witness: build honestly.
            from repro.field.fr import MODULUS as R
            from repro.primitives.commitment import commit
            from repro.primitives.hashing import field_hash

            k, k_v = 111, 222
            c, o = commit(k, blinder=9)
            builder2 = CircuitBuilder()
            build_key_negotiation_circuit(
                builder2, (k + k_v) % R, c.value, field_hash(k_v), k, o, k_v
            )
            layout2, assignment2 = builder2.compile()
            keys2 = snark_ctx.keys_for(layout2)
            start = time.perf_counter()
            prove(keys2.pk, assignment2)
            return time.perf_counter() - start

        prove_pik()  # warm cache
        results["pi_k"] = prove_pik()

    run_once(benchmark, sweep)

    # Fit per-series models on padded circuit size and extrapolate.
    e_model = TimingModel.fit([(n, t) for _, n, t in results["pi_e"]])
    t_model = TimingModel.fit([(n, t) for _, n, t in results["pi_t"]])

    rows = []
    for entries, n, t in results["pi_e"]:
        rows.append(("pi_e", "%d entries" % entries, "measured", "%.1f s" % t))
    for label, entries in (("1 MB", MEGABYTE_ENTRIES), ("5 MB", 5 * MEGABYTE_ENTRIES)):
        n = padded_circuit_size(encryption_circuit_gates(entries))
        note = " (paper native: %s)" % PAPER["pi_e at 5 MB"] if label == "5 MB" else ""
        rows.append(("pi_e", label, "model", "%.0f s%s" % (e_model.predict(n), note)))
    for entries, n, t in results["pi_t"]:
        rows.append(("pi_t", "%d entries" % entries, "measured", "%.1f s" % t))
    for label, entries in (("1 MB", MEGABYTE_ENTRIES), ("5 MB", 5 * MEGABYTE_ENTRIES)):
        n = padded_circuit_size(transformation_circuit_gates([entries], [entries]))
        note = " (paper native: %s)" % PAPER["pi_t at 5 MB"] if label == "5 MB" else ""
        rows.append(("pi_t", label, "model", "%.0f s%s" % (t_model.predict(n), note)))
    rows.append(("pi_k", "any size", "measured", "%.2f s (paper native: %s)"
                 % (results["pi_k"], PAPER["pi_k"])))
    print_table(
        "Figure 6 - proof generation time vs data size (%s)" % engine_label(),
        ["proof", "data size", "kind", "time"],
        rows,
    )

    # Shape assertions.
    e_times = [t for _, _, t in results["pi_e"]]
    assert e_times[-1] > e_times[0]  # pi_e grows with data
    # pi_t needs fewer raw constraints than pi_e at equal data size (no
    # MiMC re-encryption); timing may round to the same padded n.
    assert transformation_circuit_gates([8], [8]) < encryption_circuit_gates(8)
    # pi_k is independent of the data and cheaper than both at 8 entries.
    assert results["pi_k"] < results["pi_e"][-1][2]
    assert results["pi_k"] < results["pi_t"][-1][2]
