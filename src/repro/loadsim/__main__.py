"""CLI front-end: ``python -m repro.loadsim``.

Runs one simulation and prints the report; exits 1 if any invariant was
violated (the contract the CI soak job gates on).  The printed
``replay`` line is a complete command to reproduce the run bit for bit.
With ``REPRO_LEDGER`` set, the full report lands in the run's
``loadsim.run`` ledger record.
"""

from __future__ import annotations

import argparse
import os
import sys

from repro.faults import FaultPlan
from repro.loadsim.sim import LoadSimulator, SimConfig


def _parse_faults(text: str) -> tuple[str, int]:
    """``profile``, ``profile:seed`` or ``env`` (read ``REPRO_FAULTS``)
    -> (profile, seed); seed 0 derives the fault seed from ``--seed``."""
    if text == "env":
        raw = os.environ.get("REPRO_FAULTS", "").strip()
        return FaultPlan.parse_env(raw) if raw else ("off", 0)
    return FaultPlan.parse_env(text) if ":" in text else (text, 0)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.loadsim",
        description="Population-scale ZKDET load/soak simulation.",
    )
    parser.add_argument("--users", type=int, default=10_000)
    parser.add_argument("--ops", type=int, default=4_000)
    parser.add_argument("--mix", default="mixed",
                        help="preset name or 'mint=N,trade=N,audit=N'")
    parser.add_argument("--seed", type=lambda s: int(s, 0), default=20220707)
    parser.add_argument("--mempool", type=int, default=4096, dest="mempool_capacity")
    parser.add_argument("--block-txs", type=int, default=256)
    parser.add_argument("--churn-every", type=int, default=500)
    parser.add_argument("--faults", default="off",
                        help="fault profile, 'profile:seed', or 'env' (read REPRO_FAULTS)")
    args = parser.parse_args(argv)

    profile, fault_seed = _parse_faults(args.faults)
    config = SimConfig(
        users=args.users,
        ops=args.ops,
        mix=args.mix,
        seed=args.seed,
        mempool_capacity=args.mempool_capacity,
        block_txs=args.block_txs,
        churn_every=args.churn_every,
        fault_profile=profile,
        fault_seed=fault_seed,
    )
    report = LoadSimulator(config).run()
    payload = report.to_dict()
    for column in (
        "users", "ops", "mix", "seed", "fault_profile", "fault_seed",
        "digest", "tx_per_sec", "mined", "dropped", "trades_started",
        "trades_completed", "refunds", "aborts", "abort_rate",
        "audit_p50_us", "audit_p99_us", "users_materialized", "blocks",
    ):
        print("%-22s %s" % (column, payload[column]))
    print(
        "%-22s python -m repro.loadsim --users %d --ops %d --mix '%s' --seed %d "
        "--faults %s:%d"
        % ("replay", config.users, config.ops, config.mix, config.seed,
           profile, config.resolved_fault_seed())
    )
    if report.violations:
        print("\nINVARIANT VIOLATIONS (%d):" % len(report.violations), file=sys.stderr)
        for violation in report.violations[:20]:
            print("  - %s" % violation, file=sys.stderr)
        return 1
    print("%-22s %s" % ("invariants", "ok (%d checks)" % report.config.ops))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
