"""Figure 6: proof-generation time vs. data size.

Three series, as in the paper:

- pi_e / pi_p (proofs of encryption) — grows with the dataset: the paper
  reports ~3 minutes for a 5 MB dataset (native prover);
- pi_t (transformation proofs for dup/agg/part, "essentially data
  comparisons") — ~10 s for 5 MB;
- pi_k (key negotiation) — constant, ~120 ms, independent of data size.

We prove for real at 2-16 entries, fit the model, and extrapolate to the
paper's 1 MB / 5 MB points.  Shape claims reproduced: pi_e and pi_t grow
linearly with data, pi_t well below pi_e, pi_k flat.  pi_e proves a MiMC
round in one row and pi_k a Poseidon partial round in two, so a 1-entry
pi_e's circuit is smaller than pi_k's (n = 128 against 256) and so is its
time; pi_k sits below pi_e from the size where pi_e's circuit outgrows it.

pi_e and pi_t both link the data's KZG commitment [d] (LegoSNARK-style,
DESIGN.md, "The linked commitments"), so neither re-opens it in-circuit: pi_t is
its element equalities plus one reserved row per linked entry, pi_e the
MiMC re-encryption.  EXPERIMENTS.md reports the pi_e / pi_t ratio against
the paper's ~18x.
"""

import time

from conftest import engine_label, print_table, run_once

from repro.costmodel import (
    TimingModel,
    encryption_circuit_gates,
    encryption_circuit_size,
    transformation_circuit_gates,
    transformation_circuit_size,
)
from repro.core.exchange import build_key_negotiation_circuit
from repro.core.tokens import DataAsset
from repro.core.transform_protocol import prove_encryption, prove_transformation
from repro.core.transformations import Duplication
from repro.plonk.circuit import CircuitBuilder
from repro.plonk.prover import prove

ENTRY_BYTES = 31
SIZES = (2, 4, 8, 16)
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
        for entries in SIZES:
            asset = DataAsset.create(list(range(1, entries + 1)), key=7, nonce=3)
            prove_encryption(snark_ctx, asset)  # warm the key cache
            start = time.perf_counter()
            prove_encryption(snark_ctx, asset)
            n = encryption_circuit_size(entries)
            pi_e.append((entries, n, time.perf_counter() - start))
        results["pi_e"] = pi_e

        # pi_t series (duplication — "essentially data comparisons").
        pi_t = []
        for entries in SIZES:
            asset = DataAsset.create(list(range(1, entries + 1)), key=7, nonce=3)
            prove_transformation(snark_ctx, [asset], Duplication())
            start = time.perf_counter()
            prove_transformation(snark_ctx, [asset], Duplication())
            n = transformation_circuit_size([entries], [entries])
            pi_t.append((entries, n, time.perf_counter() - start))
        results["pi_t"] = pi_t

        # pi_k (constant size), on an honest witness.
        def prove_pik():
            from repro.field.fr import MODULUS as R
            from repro.kzg.commit import commit_scalar
            from repro.primitives.hashing import field_hash

            k, k_v, rho = 111, 222, 9
            builder = CircuitBuilder()
            build_key_negotiation_circuit(
                builder, (k + k_v) % R, commit_scalar(snark_ctx.srs, k, rho),
                field_hash(k_v), k, rho, k_v,
            )
            layout, assignment = builder.compile()
            keys = snark_ctx.keys_for(layout)
            start = time.perf_counter()
            prove(keys.pk, assignment)
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
        n = encryption_circuit_size(entries)
        note = " (paper native: %s)" % PAPER["pi_e at 5 MB"] if label == "5 MB" else ""
        rows.append(("pi_e", label, "model", "%.0f s%s" % (e_model.predict(n), note)))
    for entries, n, t in results["pi_t"]:
        rows.append(("pi_t", "%d entries" % entries, "measured", "%.1f s" % t))
    for label, entries in (("1 MB", MEGABYTE_ENTRIES), ("5 MB", 5 * MEGABYTE_ENTRIES)):
        n = transformation_circuit_size([entries], [entries])
        note = " (paper native: %s)" % PAPER["pi_t at 5 MB"] if label == "5 MB" else ""
        rows.append(("pi_t", label, "model", "%.0f s%s" % (t_model.predict(n), note)))
    rows.append(("pi_k", "any size", "measured", "%.2f s (paper native: %s)"
                 % (results["pi_k"], PAPER["pi_k"])))
    print_table(
        "Figure 6 - proof generation time vs data size (%s)" % engine_label(),
        ["proof", "data size", "kind", "time"],
        rows,
    )

    # Shape assertions (the paper's Figure 6).
    e_times = [t for _, _, t in results["pi_e"]]
    assert e_times[-1] > e_times[0]  # pi_e grows with data
    # pi_t sits well below pi_e at equal data size: both link the data,
    # and pi_t has no MiMC re-encryption.
    assert transformation_circuit_gates([8], [8]) < encryption_circuit_gates(8)
    assert results["pi_t"][-1][2] < results["pi_e"][-1][2]
    # pi_k is independent of the data: below pi_e wherever pi_e's circuit
    # is larger than pi_k's (n = 256), and below the growing pi_t at the
    # paper's data sizes.
    builder = CircuitBuilder()
    build_key_negotiation_circuit(builder, 0, 0, 0, 0, 0, 0)
    pik_n = builder.compile(check=False)[0].n
    larger = [t for _, n, t in results["pi_e"] if n > pik_n]
    assert larger and all(results["pi_k"] < t for t in larger)
    big = 5 * MEGABYTE_ENTRIES
    pi_t_5mb = t_model.predict(transformation_circuit_size([big], [big]))
    assert results["pi_k"] < pi_t_5mb < e_model.predict(encryption_circuit_size(big))
