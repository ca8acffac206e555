"""The run ledger: the one file telemetry writes, one JSONL record per run.

Spans and metrics answer questions about *one process right now*; the
ledger is the durable trail — the observability counterpart of the
paper's on-chain traceability.  A record stores what was measured, and
``python -m repro.telemetry report`` derives the rest (quantiles from
the buckets, cache hit rates from the counters):

- the span tree (flattened via :func:`~repro.telemetry.spans.span_records`);
- the **delta** of the counter/histogram snapshot over the run, so
  records attribute per-run even when many runs share a process;
- every fault injected during the run;
- environment provenance: the installed engine's backend name, git
  revision, telemetry setting (``off``/``on``) and the installed fault
  plan, so a chaos result replays from the record alone.

Schema (one JSON object per line)::

    {
      "schema": "repro.telemetry.ledger",   # constant
      "schema_version": 2,
      "name": "exchange.keysecure",         # what kind of run
      "seq": 3,                             # per-writer sequence number
      "attrs": {...},                       # outcome; "error" if it raised
      "env": {"backend": ..., "git_revision": ..., "telemetry_level": ...,
              "pid": ..., "faults": "<profile>:<seed>" or null},
      "metrics": {"counters": {...},
                  "histograms": {"<name>": {"count", "sum", "buckets"}}},
      "faults": [{"sequence": ..., "site": ..., "kind": ..., "rule_index": ...}],
      "spans": [ ...span_records... ]       # [] if telemetry was off
    }

The writers are ``KeySecureExchange.run`` (``exchange.keysecure``),
``LoadSimulator.run`` (``loadsim.run``) and the paper-figure benches
(``bench.<slug>``, attrs ``headers`` / ``rows``).  Readers ignore unknown
keys; an incompatible change bumps ``schema_version``, and :func:`read`
refuses a record of any other version.  Gating: the ``REPRO_LEDGER``
environment variable, the one route to a ledger; unset, :func:`begin`
returns a no-op recorder and the instrumented code paths cost one
``None`` check.  A process started with ``REPRO_LEDGER`` set runs with
telemetry on (:func:`repro.telemetry.configure_from_env`), so each of its
records carries the run's metric deltas and the tree of its root span.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import os
import subprocess
from typing import Any, Dict, List, Mapping, Optional, Sequence, Union

from repro import faults as _faults
from repro import telemetry as _tel
from repro.telemetry.spans import Span, span_records

SCHEMA = "repro.telemetry.ledger"
SCHEMA_VERSION = 2

#: Environment variable naming the ledger file; empty/unset disables.
ENV_VAR = "REPRO_LEDGER"


def default_path() -> Optional[str]:
    """The ledger path from ``REPRO_LEDGER``, or ``None`` when unset."""
    path = os.environ.get(ENV_VAR, "").strip()
    return path or None


def enabled() -> bool:
    return default_path() is not None


@functools.cache
def _git_revision() -> str:
    """``git rev-parse HEAD`` of this checkout, read once per process."""
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


def environment() -> Dict[str, Any]:
    """The provenance block every record carries."""
    # Lazy import: ``repro.backend`` imports ``repro.telemetry``.
    from repro.backend import get_engine

    injector = _faults.active()
    return {
        "backend": get_engine().name,
        "git_revision": _git_revision(),
        "telemetry_level": "on" if _tel.enabled() else "off",
        "pid": os.getpid(),
        "faults": (
            "%s:%d" % (injector.plan.name, injector.plan.seed)
            if injector is not None
            else None
        ),
    }


# ----- snapshot differencing ----------------------------------------------


def diff_snapshots(before: Mapping[str, Any], after: Mapping[str, Any]) -> Dict[str, Any]:
    """The per-run delta between two ``telemetry.snapshot()`` dicts.

    Counters subtract; histograms subtract count, sum and per-bucket
    counts.  Instruments untouched during the run are dropped.
    """
    counters: Dict[str, int] = {}
    before_counters = before.get("counters", {})
    for name, value in after.get("counters", {}).items():
        delta = int(value) - int(before_counters.get(name, 0))
        if delta:
            counters[name] = delta
    histograms: Dict[str, Any] = {}
    before_hists = before.get("histograms", {})
    for name, hist in after.get("histograms", {}).items():
        base = before_hists.get(name, {})
        count = int(hist["count"]) - int(base.get("count", 0))
        if count <= 0:
            continue
        base_buckets = base.get("buckets", {})
        histograms[name] = {
            "count": count,
            "sum": float(hist["sum"]) - float(base.get("sum", 0.0)),
            "buckets": {
                bucket: int(n) - int(base_buckets.get(bucket, 0))
                for bucket, n in hist["buckets"].items()
            },
        }
    return {"counters": counters, "histograms": histograms}


def cache_hit_rates(counters: Mapping[str, int]) -> Dict[str, float]:
    """Per-cache hit rates from ``engine.cache.hits/misses{cache=...}``."""
    hits: Dict[str, int] = {}
    misses: Dict[str, int] = {}
    for name, value in counters.items():
        if name.startswith("engine.cache.hits{cache="):
            hits[name.split("cache=", 1)[1].rstrip("}")] = int(value)
        elif name.startswith("engine.cache.misses{cache="):
            misses[name.split("cache=", 1)[1].rstrip("}")] = int(value)
    rates: Dict[str, float] = {}
    for cache in sorted(set(hits) | set(misses)):
        h, m = hits.get(cache, 0), misses.get(cache, 0)
        if h + m:
            rates[cache] = h / (h + m)
    return rates


# ----- the writer ----------------------------------------------------------


class Ledger:
    """Append-only JSONL writer with a per-writer sequence counter."""

    def __init__(self, path: str) -> None:
        self.path = path
        self._seq = 0

    def append(self, record: Mapping[str, Any]) -> Dict[str, Any]:
        """Stamp schema fields onto ``record`` and append one JSON line."""
        stamped: Dict[str, Any] = {
            "schema": SCHEMA,
            "schema_version": SCHEMA_VERSION,
            "seq": self._seq,
        }
        stamped.update(record)
        self._seq += 1
        directory = os.path.dirname(os.path.abspath(self.path))
        os.makedirs(directory, exist_ok=True)
        with open(self.path, "a") as fh:
            fh.write(json.dumps(stamped, default=str))
            fh.write("\n")
        return stamped


def read(path: str) -> List[Dict[str, Any]]:
    """Parse a ledger file.  Lines of other schemas are skipped; a record
    of this schema at another ``schema_version`` raises ``ValueError``."""
    records: List[Dict[str, Any]] = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            record = json.loads(line)
            if record.get("schema") != SCHEMA:
                continue
            version = record.get("schema_version")
            if version != SCHEMA_VERSION:
                raise ValueError(
                    "line %d: ledger schema_version %r (this reader reads %d)"
                    % (lineno, version, SCHEMA_VERSION)
                )
            records.append(record)
    return records


# ----- run capture ---------------------------------------------------------


class RunRecorder:
    """One run's record: baselines at :func:`begin`, written when the
    recorder's ``with`` block exits — however it exits.

    Inside the block :meth:`update` names the run's root span and its
    outcome attrs.  An exception adds ``attrs["error"] = "<Type>:
    <message>"`` to the record and propagates.
    """

    __slots__ = (
        "ledger", "name", "span", "attrs", "faults", "record",
        "_baseline", "_fault_baseline",
    )

    def __init__(self, ledger: Ledger, name: str) -> None:
        self.ledger = ledger
        self.name = name
        self.span: Any = None
        self.attrs: Dict[str, Any] = {}
        self.faults: Optional[Sequence[Any]] = None
        self.record: Optional[Dict[str, Any]] = None
        self._baseline = _tel.snapshot()
        injector = _faults.active()
        self._fault_baseline = len(injector.log) if injector is not None else 0

    def update(
        self, span: Any = None, faults: Optional[Sequence[Any]] = None, **attrs: Any
    ) -> None:
        """Set the root span, the outcome attrs and, for a run that
        installs injectors of its own, the faults they drew (by default
        the record takes what the active injector drew since :func:`begin`).
        A ``span`` that is not a real :class:`Span` — the shared no-op
        when telemetry is off — serialises as ``[]``."""
        if span is not None:
            self.span = span
        if faults is not None:
            self.faults = faults
        self.attrs.update(attrs)

    def __enter__(self) -> "RunRecorder":
        return self

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> bool:
        if exc_type is not None:
            self.attrs["error"] = "%s: %s" % (exc_type.__name__, exc)
        drawn = self.faults
        if drawn is None:
            injector = _faults.active()
            drawn = injector.log[self._fault_baseline :] if injector is not None else []
        self.record = self.ledger.append(
            {
                "name": self.name,
                "attrs": self.attrs,
                "env": environment(),
                "metrics": diff_snapshots(self._baseline, _tel.snapshot()),
                "faults": [dataclasses.asdict(fault) for fault in drawn],
                "spans": span_records(self.span) if isinstance(self.span, Span) else [],
            }
        )
        return False


class _NoopRecorder:
    """Returned by :func:`begin` when no ledger path is configured."""

    __slots__ = ()

    record = None

    def update(self, span: Any = None, faults: Any = None, **attrs: Any) -> None:
        pass

    def __enter__(self) -> "_NoopRecorder":
        return self

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> bool:
        return False


NOOP_RECORDER = _NoopRecorder()

#: Writers keyed by absolute path so sequence numbers survive multiple
#: ``begin`` calls against the same file within one process.
_writers: Dict[str, Ledger] = {}


def writer(path: str) -> Ledger:
    key = os.path.abspath(path)
    ledger = _writers.get(key)
    if ledger is None:
        ledger = Ledger(path)
        _writers[key] = ledger
    return ledger


def begin(name: str) -> "Union[RunRecorder, _NoopRecorder]":
    """Start capturing one run into the ledger at ``REPRO_LEDGER``.

    Returns a no-op recorder when it is unset, so instrumenting a code
    path costs nothing without opt-in::

        with ledger.begin("exchange.keysecure") as rec, \\
                telemetry.span("exchange.run") as root:
            rec.update(span=root)
            result = run_protocol()
            rec.update(success=result.success)
    """
    target = default_path()
    if target is None:
        return NOOP_RECORDER
    return RunRecorder(writer(target), name)
