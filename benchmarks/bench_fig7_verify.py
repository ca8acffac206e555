"""Figure 7: verification time — ZKDET (Plonk) vs. ZKCP (Groth16).

The paper's claim: Plonk verification stays flat (<0.1 s native; 2
pairings + 18 G1 exponentiations) regardless of input size, while ZKCP's
Groth16 verifier performs 3 pairings + one G1 exponentiation *per public
input*, so its cost grows with ell.  We verify real proofs from both
systems while sweeping the public-input count and check the crossover
shape, plus the Section VI-B3 proof-size/op-count claims.
"""

import time

from conftest import print_table, run_once

from repro.core.exchange import key_negotiation_keys
from repro.core.transform_protocol import build_encryption_circuit
from repro.costmodel import measure_pairing_seconds
from repro.groth16 import (
    groth16_prove,
    groth16_setup,
    groth16_verify,
    verification_group_operations as groth16_ops,
)
from repro.plonk import CircuitBuilder, prove, verify
from repro.plonk.verifier import verification_group_operations as plonk_ops
from repro.r1cs import R1CSBuilder

ELL_SWEEP = [4, 32, 128, 512]


def _proof_size(ops):
    """'768 B (9 G1 + 6 F)': the bytes and the field elements past the
    nine points."""
    size = ops["proof_size_bytes"]
    return "%d B (9 G1 + %d F)" % (size, (size - 9 * 64) // 32)


def _plonk_instance(snark_ctx, ell):
    builder = CircuitBuilder()
    total = builder.constant(0)
    for i in range(ell):
        w = builder.public_input(i + 1)
        total = builder.add(total, w)
    builder.assert_constant(total, ell * (ell + 1) // 2)
    layout, assignment = builder.compile()
    keys = snark_ctx.keys_for(layout)
    proof = prove(keys.pk, assignment)
    return keys.vk, assignment.public_inputs, proof


def _groth16_instance(ell):
    builder = R1CSBuilder()
    publics = [builder.public_input(i + 1) for i in range(ell)]
    total = builder.linear_combination([(1, p) for p in publics])
    builder.assert_constant(total, ell * (ell + 1) // 2)
    system, witness = builder.compile()
    pk, vk = groth16_setup(system)
    proof = groth16_prove(pk, witness)
    return vk, witness.public_inputs, proof


def _best_of_three(check):
    """Fastest of three runs: the first pays the cold prepared-G2 cache,
    and this box's clock states differ by more than Groth16's growth."""
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        ok = check()
        best = min(best, time.perf_counter() - start)
    return best, ok


def test_fig7_verification_time(benchmark, snark_ctx):
    plonk_rows = []
    groth_rows = []
    plonk_vks = []

    def sweep():
        for ell in ELL_SWEEP:
            vk, publics, proof = _plonk_instance(snark_ctx, ell)
            plonk_vks.append(vk)
            seconds, ok = _best_of_three(lambda: verify(vk, publics, proof))
            plonk_rows.append((ell, seconds, ok))

            gvk, gpublics, gproof = _groth16_instance(ell)
            seconds, gok = _best_of_three(lambda: groth16_verify(gvk, gpublics, gproof))
            groth_rows.append((ell, seconds, gok))

    run_once(benchmark, sweep)

    rows = []
    for (ell, t, ok), (_, gt, gok) in zip(plonk_rows, groth_rows):
        assert ok and gok
        rows.append((ell, "%.3f s" % t, "%.3f s" % gt))
    print_table(
        "Figure 7 - verification time vs public-input count",
        ["public inputs", "ZKDET (Plonk)", "ZKCP (Groth16)"],
        rows,
    )

    ops_p = plonk_ops(plonk_vks[0])
    # pi_k links the key's KZG point: one more G1 exponentiation.  pi_e
    # links the key and the data, and its MiMC round gates add [qround]
    # and a(zeta omega): the counts are per key.
    ops_k = plonk_ops(key_negotiation_keys(snark_ctx).vk)
    builder = CircuitBuilder()
    build_encryption_circuit(builder, [0], 0, 0, 0, [0], 0, 0, 0)
    ops_e = plonk_ops(snark_ctx.keys_for(builder.compile(check=False)[0]).vk)
    ops_g = groth16_ops(ELL_SWEEP[-1])
    # Measured (not just counted) pairing cost: time the engine's real
    # pairing_check kernel at each verifier's pair count.
    pairing_p = measure_pairing_seconds(ops_p["miller_loops"])
    pairing_g = measure_pairing_seconds(ops_g["miller_loops"])
    print_table(
        "Section VI-B3 - succinctness",
        ["system", "pairings", "measured pairing cost", "G1 exps", "proof size"],
        [
            ("ZKDET/Plonk", ops_p["pairings"], "%.4f s" % pairing_p,
             ops_p["g1_scalar_mults"], _proof_size(ops_p)),
            ("ZKDET/Plonk, linked key (pi_k)", ops_k["pairings"], "%.4f s" % pairing_p,
             ops_k["g1_scalar_mults"], _proof_size(ops_k)),
            ("ZKDET/Plonk, key + data + round gate (pi_e)", ops_e["pairings"], "%.4f s" % pairing_p,
             ops_e["g1_scalar_mults"], _proof_size(ops_e)),
            ("ZKCP/Groth16 (ell=%d)" % ELL_SWEEP[-1], ops_g["pairings"],
             "%.4f s" % pairing_g, ops_g["g1_scalar_mults"],
             "%d B" % ops_g["proof_size_bytes"]),
        ],
    )

    # Shape assertions: Plonk flat within noise; Groth16's verifier work
    # grows linearly in ell.  With the fast pairing engine the 3-vs-2
    # pair gap is under two milliseconds, so the growth shows in
    # wall-clock too: the ell=512 vk_x MSM over these 10-bit inputs costs
    # ~5 ms in pure Python (tens of ms at full width), while Plonk's
    # verifier never sees ell-dependent group work.
    plonk_times = [t for _, t, _ in plonk_rows]
    groth_times = [t for _, t, _ in groth_rows]
    assert max(plonk_times) < 2.5 * min(plonk_times)  # flat-ish
    assert groth16_ops(ELL_SWEEP[-1])["g1_scalar_mults"] > groth16_ops(ELL_SWEEP[0])["g1_scalar_mults"]
    assert groth_times[-1] > groth_times[0] + 0.002  # measured linear growth
    assert pairing_g > pairing_p  # 3 pairs cost more than 2
