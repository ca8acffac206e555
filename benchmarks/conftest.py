"""Shared benchmark fixtures.

Every benchmark runs real cryptography once (``rounds=1``) — a Plonk proof
takes seconds in pure Python, so statistical repetition is pointless —
then prints a paper-vs-measured table.  Extrapolated rows (marked `model`)
come from the cost model calibrated on the measured points.

Each table is also written as machine-readable JSON (``BENCH_<slug>.json``
under ``REPRO_BENCH_DIR``, default ``benchmarks/results/``) so CI runs and
regression tooling can diff numbers without scraping stdout.  Every
payload is stamped with a schema version, a UTC timestamp, the git
revision and the active backend/telemetry level, and — when
``REPRO_TELEMETRY`` is at least ``metrics`` — a snapshot of the telemetry
registry, so a result file records the kernel counters that produced it.
"""

import datetime
import json
import os
import re
import subprocess
import time

import pytest

from repro import faults, telemetry
from repro.backend import get_engine
from repro.core.snark import SnarkContext
from repro.telemetry import ledger as _ledger

#: Bump when the BENCH json payload shape changes incompatibly.
BENCH_SCHEMA_VERSION = 2

#: Large enough for circuits up to n = 32768 (the 4-point logistic-
#: regression predicate pads to that size).
_SRS_DEGREE = 32800


@pytest.fixture(scope="session")
def snark_ctx():
    return SnarkContext.with_fresh_srs(_SRS_DEGREE, tau=0xBEEF)


def run_once(benchmark, fn):
    """Time a function exactly once through pytest-benchmark."""
    return benchmark.pedantic(fn, rounds=1, iterations=1, warmup_rounds=0)


def _slugify(title: str) -> str:
    return re.sub(r"[^a-z0-9]+", "_", title.lower()).strip("_")


def _git_revision() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=os.path.dirname(os.path.abspath(__file__)),
            capture_output=True,
            text=True,
            timeout=10,
        )
        if out.returncode == 0:
            return out.stdout.strip()
    except OSError:
        pass
    return "unknown"


def _emit_json(title: str, headers: list, rows: list) -> None:
    out_dir = os.environ.get(
        "REPRO_BENCH_DIR",
        os.path.join(os.path.dirname(os.path.abspath(__file__)), "results"),
    )
    os.makedirs(out_dir, exist_ok=True)
    payload = {
        "schema_version": BENCH_SCHEMA_VERSION,
        "title": title,
        "headers": [str(h) for h in headers],
        "rows": [[c for c in row] for row in rows],
        "unix_time": time.time(),
        "utc_time": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "git_revision": _git_revision(),
        "backend": get_engine().name,
        "telemetry_level": telemetry.level_name(),
    }
    # Stamp the active fault schedule so a soak/chaos result is
    # replayable from the artifact alone: profile + seed pin the whole
    # injected-failure sequence (see repro/faults/plan.py).
    injector = faults.active()
    payload["fault_profile"] = injector.plan.name if injector is not None else "off"
    payload["fault_seed"] = injector.plan.seed if injector is not None else None
    chaos_seed = os.environ.get("REPRO_CHAOS_SEED", "").strip()
    if chaos_seed:
        payload["chaos_seed"] = chaos_seed
    if telemetry.metrics_enabled():
        payload["telemetry"] = telemetry.snapshot()
    path = os.path.join(out_dir, "BENCH_%s.json" % _slugify(title))
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, default=str)
        fh.write("\n")
    # With REPRO_LEDGER set, every emitted table also lands in the run
    # ledger, where `python -m repro.telemetry report` / `diff` read it.
    ledger_path = _ledger.default_path()
    if ledger_path is not None:
        metrics = (
            _ledger.diff_snapshots({}, telemetry.snapshot())
            if telemetry.metrics_enabled()
            else {"counters": {}, "histograms": {}}
        )
        _ledger.writer(ledger_path).append(
            {
                "name": "bench.%s" % _slugify(title),
                "attrs": {"headers": payload["headers"], "rows": payload["rows"]},
                "env": _ledger.environment(),
                "metrics": metrics,
                "cache_hit_rates": _ledger.cache_hit_rates(metrics["counters"]),
                "faults": [],
                "spans": [],
            }
        )


def print_table(title: str, headers: list, rows: list) -> None:
    """Render an aligned comparison table to stdout and mirror it to JSON."""
    widths = [
        max(len(str(h)), max((len(str(r[i])) for r in rows), default=0))
        for i, h in enumerate(headers)
    ]
    line = "  ".join(str(h).ljust(w) for h, w in zip(headers, widths))
    print("\n== %s ==" % title)
    print(line)
    print("-" * len(line))
    for row in rows:
        print("  ".join(str(c).ljust(w) for c, w in zip(row, widths)))
    _emit_json(title, headers, rows)
