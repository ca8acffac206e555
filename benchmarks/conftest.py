"""Shared benchmark fixtures.

Every benchmark runs real cryptography once (``rounds=1``) — a Plonk proof
takes seconds in pure Python, so statistical repetition is pointless —
then prints a paper-vs-measured table.  Extrapolated rows (marked `model`)
come from the cost model calibrated on the measured points.

With ``REPRO_LEDGER=<path>`` set, each table is also appended to that run
ledger as one ``bench.<slug>`` record (attrs ``headers`` / ``rows``),
stamped like every record with the git revision, backend, telemetry setting
and installed fault plan; ``python -m repro.telemetry report`` reads it.
A ledger path switches telemetry on for the process, so the timed rows then
include its spans and counters (``bench_telemetry_overhead.py`` prints what
they cost a proof).
"""

import re

import pytest

from repro.backend import get_engine
from repro.core.snark import SnarkContext
from repro.telemetry import ledger as _ledger

#: Large enough for circuits up to n = 32768 (the 4-point logistic-
#: regression predicate pads to that size).
_SRS_DEGREE = 32800


@pytest.fixture(scope="session")
def snark_ctx():
    return SnarkContext.with_fresh_srs(_SRS_DEGREE, tau=0xBEEF)


def engine_label() -> str:
    """What the process's engine proves on, for a table's title: its
    name and helper count (one helper per spare core of the CPU mask)."""
    engine = get_engine()
    return "%s engine, %d helper%s" % (
        engine.name, engine.helpers, "" if engine.helpers == 1 else "s"
    )


def run_once(benchmark, fn):
    """Time a function exactly once through pytest-benchmark."""
    return benchmark.pedantic(fn, rounds=1, iterations=1, warmup_rounds=0)


def _slugify(title: str) -> str:
    return re.sub(r"[^a-z0-9]+", "_", title.lower()).strip("_")


def print_table(title: str, headers: list, rows: list) -> None:
    """Render an aligned comparison table to stdout and, with a run ledger
    active, append it as one ``bench.<slug>`` record."""
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
    with _ledger.begin("bench.%s" % _slugify(title)) as record:
        record.update(headers=[str(h) for h in headers], rows=[list(row) for row in rows])
