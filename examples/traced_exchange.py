"""A fully traced key-secure exchange: spans, kernel counters, run ledger.

Runs the publish -> sell pipeline with telemetry on and then shows the
four things it produces:

1. the span tree of the exchange — every protocol step (prove, verify,
   commit, reveal, settle) with the matching transaction's gas and
   emitted events attached as attributes;
2. the prover's own span tree — the five Plonk rounds with wall-clock;
3. the kernel counters — NTT/MSM calls and the engine-cache hit/miss
   accounting (warm proofs show the 10 cached coset FFTs directly);
4. the run ledger — the durable JSONL record the exchange appended, and
   the `python -m repro.telemetry report` rendered from it.

Run:  python examples/traced_exchange.py        (~15 s, real proofs)
Tip:  REPRO_LEDGER=runs.jsonl python examples/traced_exchange.py
      keeps the ledger (this is how benchmarks/baselines/sample_ledger.jsonl
      was recorded); `python -m repro.telemetry flame runs.jsonl` then
      gives the collapsed stacks a flamegraph renderer reads.
"""

import os
import tempfile

from repro import SnarkContext, ZKDETMarketplace, telemetry
from repro.telemetry import cli as telemetry_cli
from repro.telemetry import ledger


def main():
    # Telemetry on, so the span trees below exist.
    telemetry.set_level("on")
    ledger_path = ledger.default_path()
    if ledger_path is None:
        ledger_path = os.path.join(tempfile.mkdtemp(prefix="repro-"), "runs.jsonl")
        os.environ[ledger.ENV_VAR] = ledger_path

    print("[setup] universal SRS ceremony + marketplace deployment...")
    snark = SnarkContext.with_fresh_srs(8208)
    market = ZKDETMarketplace(snark)
    alice = market.register_participant()
    bob = market.register_participant()

    print("[run] publish + key-secure sale (every proof is real)...\n")
    listing = market.publish_dataset(alice, plaintext=[7, 1001])
    result = market.sell(alice, listing, bob, price=5000)
    assert result.success, result.reason

    roots = telemetry.finished_roots()

    publish = next(r for r in roots if r.name == "marketplace.publish")
    sell = next(r for r in roots if r.name == "marketplace.sell")
    print("=" * 70)
    print("Protocol span trees (gas and events attached to on-chain steps)")
    print("=" * 70)
    print(telemetry.format_span_tree(publish))
    print()
    print(telemetry.format_span_tree(sell))

    # The exchange's phase-2 prover run is a complete Plonk proof; its
    # span tree hangs under exchange.prove -> plonk.prove.
    plonk = sell.find("plonk.prove")
    print()
    print("=" * 70)
    print("One Plonk proof, by round")
    print("=" * 70)
    print(telemetry.format_span_tree(plonk))

    print()
    print("=" * 70)
    print("Kernel + cache counters (telemetry.snapshot())")
    print("=" * 70)
    for key, value in sorted(telemetry.registry().counter_values().items()):
        print("  %-55s %d" % (key, value))

    mint_gas = publish.find("publish.mint").attrs["tx.gas"]
    print()
    print("mint gas: %d; exchange gas total: %d; events on mint: %s"
          % (mint_gas, result.gas_used, publish.find("publish.mint").attrs["tx.events"]))

    # The exchange appended one durable record per run; render it the
    # way the CI soak and chaos jobs do.
    records = ledger.read(ledger_path)
    print()
    print("=" * 70)
    print("Run ledger (%s): %d record(s)" % (ledger_path, len(records)))
    print("=" * 70)
    telemetry_cli.main(["report", ledger_path])
    print()
    print("flame input (`python -m repro.telemetry flame %s`):" % ledger_path)
    for line in list(telemetry_cli.collapsed_stacks(records))[:5]:
        print("  " + line)
    print("  ...")
    print("Done.")


if __name__ == "__main__":
    main()
