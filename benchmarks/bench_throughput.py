"""Exchange-settlement throughput: single vs. batched verification.

The abstract claims ZKDET "maintains high throughput despite large data
volumes".  Verification is the per-exchange on-chain bottleneck (proof
generation is off-chain and parallel across sellers), so we measure how
many pi_k verifications per second a settlement node sustains — one by
one versus batched through the small-exponent folding of
repro.plonk.batch (k proofs: two MSMs over all members' weighted terms,
still one two-pairing check).
"""

import time

from conftest import print_table, run_once

from repro.field.fr import MODULUS as R
from repro.plonk import batch_verify, prove, verify
from repro.plonk.circuit import CircuitBuilder
from repro.primitives.commitment import commit
from repro.primitives.hashing import field_hash
from repro.core.exchange import build_key_negotiation_circuit

BATCH = 8


def _pik_instance(snark_ctx, seed):
    key, k_v = 1000 + seed, 2000 + seed
    c, o = commit(key, blinder=300 + seed)
    k_c = (key + k_v) % R
    h_v = field_hash(k_v)
    builder = CircuitBuilder()
    build_key_negotiation_circuit(builder, k_c, c.value, h_v, key, o, k_v)
    layout, assignment = builder.compile()
    keys = snark_ctx.keys_for(layout)
    return keys.vk, assignment.public_inputs, prove(keys.pk, assignment)


def test_throughput_batched_settlement(benchmark, snark_ctx):
    results = {}

    def measure():
        instances = [_pik_instance(snark_ctx, i) for i in range(BATCH)]
        start = time.perf_counter()
        assert all(verify(vk, pubs, proof) for vk, pubs, proof in instances)
        results["single"] = time.perf_counter() - start
        start = time.perf_counter()
        assert batch_verify(instances)
        results["batched"] = time.perf_counter() - start

    run_once(benchmark, measure)

    single_rate = BATCH / results["single"]
    batch_rate = BATCH / results["batched"]
    print_table(
        "Throughput - settling %d exchanges (pi_k verifications)" % BATCH,
        ["strategy", "total time", "exchanges/second", "speedup"],
        [
            ("one-by-one", "%.3f s" % results["single"], "%.2f" % single_rate, "1.0x"),
            ("batched", "%.3f s" % results["batched"], "%.2f" % batch_rate,
             "%.1fx" % (results["single"] / results["batched"])),
        ],
    )
    # Batching must amortise the pairing cost substantially.
    assert results["batched"] < results["single"] / 2
