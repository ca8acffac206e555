"""Population-scale load-simulator benchmark: sustained tx/s, plain and under soak.

PR 10 added the seedable workload generator (``src/repro/loadsim/``, see
``docs/loadsim.md``) and the scale path under it: the fee-ordered
bounded mempool in ``repro.chain`` plus incremental DHT replica
rebalancing under churn.  This benchmark drives one seeded mixed
workload through it twice:

- **plain row** — faults off; sustained transactions/sec,
  provenance-audit latency p50/p99 (the ``EventIndex`` + DHT read path),
  and the abort/refund rate.
- **soak row** — the same op stream under the unbounded ``soak`` fault
  profile, so the artifact records throughput *under* sustained injected
  failure, not just the sunny-day number.

Every row asserts zero invariant violations — a fast corrupt run is not
a result.  The JSON artifact (``BENCH_loadsim.json``) is stamped by the
shared emitter with the active fault profile and seed, so any row can be
replayed with ``python -m repro.loadsim`` from the artifact alone.

Either entry point — pytest or ``python benchmarks/bench_loadsim.py
[--quick]`` — writes the artifact via the shared emitter.  Full mode
runs the acceptance-scale 10^4-user population; quick mode (CI) scales
the population down.
"""

import argparse
import sys

from conftest import print_table

from repro.loadsim import run_sim

_SEED = 20220707
_MIX = "mixed"


def _row_config(quick: bool) -> dict:
    if quick:
        return dict(users=1_000, ops=1_500, mix=_MIX, seed=_SEED)
    return dict(users=10_000, ops=4_000, mix=_MIX, seed=_SEED)


def measure(quick: bool = False) -> list:
    base = _row_config(quick)
    reports = [
        ("plain", run_sim(**base)),
        ("soak", run_sim(fault_profile="soak", **base)),
    ]
    for label, report in reports:
        assert report.violations == [], (
            "%s: %d invariant violations — first: %s"
            % (label, len(report.violations), report.violations[0])
        )
    return reports


def report(reports: list, quick: bool) -> None:
    rows = []
    for label, sim in reports:
        rows.append(
            (
                label,
                sim.config.users,
                sim.mined,
                "%.1f" % sim.tx_per_sec,
                "%.0f" % sim.audit_p50_us,
                "%.0f" % sim.audit_p99_us,
                "%.4f" % sim.abort_rate,
                sim.dropped,
                sim.blocks,
                sim.digest[:16],
            )
        )
    print_table(
        "loadsim",
        ["config", "users", "mined", "tx/s", "audit p50 (us)",
         "audit p99 (us)", "abort rate", "dropped", "blocks", "digest"],
        rows,
    )
    mode = "quick" if quick else "full"
    print("mode=%s seed=%d mix=%s — all rows invariant-clean" % (mode, _SEED, _MIX))


def test_loadsim_bench():
    """CI entry: quick-scale rows, both invariant-clean."""
    reports = measure(quick=True)
    report(reports, quick=True)
    assert all(sim.trades_completed > 0 for _, sim in reports)
    assert dict(reports)["soak"].faults_injected > 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="CI smoke: 10^3-user population instead of the full 10^4",
    )
    options = parser.parse_args(argv)
    report(measure(quick=options.quick), quick=options.quick)
    return 0


if __name__ == "__main__":
    sys.exit(main())
