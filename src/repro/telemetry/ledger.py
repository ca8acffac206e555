"""The run ledger: one append-only JSONL record per proof or exchange.

Spans and metrics answer questions about *one process right now*; the
ledger is the durable trail — the observability counterpart of the
paper's on-chain traceability.  Each record captures everything needed
to reconstruct what one run did and cost:

- the span tree (flattened via :func:`~repro.telemetry.export.span_records`);
- the **delta** of the counter/histogram snapshot over the run, so
  records attribute per-exchange even when many runs share a process;
- per-cache hit rates derived from the ``engine.cache.*`` deltas;
- every fault the active :class:`~repro.faults.injector.FaultInjector`
  injected during the run;
- environment provenance: the installed engine's backend name, git
  revision, telemetry level.

Schema (one JSON object per line)::

    {
      "schema": "repro.telemetry.ledger",   # constant
      "schema_version": 1,
      "name": "exchange.keysecure",         # what kind of run
      "seq": 3,                             # per-writer sequence number
      "attrs": {...},                       # caller-provided outcome attrs
      "env": {"backend": ..., "git_revision": ...,
              "telemetry_level": ..., "pid": ...},
      "metrics": {"counters": {...}, "histograms": {...}},   # run delta
      "cache_hit_rates": {"<cache>": 0.93, ...},
      "faults": [{"sequence": ..., "site": ..., "kind": ..., "rule_index": ...}],
      "spans": [ ...span_records... ]       # [] below trace level
    }

Readers must ignore unknown keys; writers bump ``schema_version`` on any
incompatible change.  Gating: a path passed explicitly, or the
``REPRO_LEDGER`` environment variable; with neither, :func:`begin`
returns a no-op recorder and the instrumented code paths cost one
``None`` check.
"""

from __future__ import annotations

import json
import os
import subprocess
from typing import Any, Dict, List, Mapping, Optional, Union

from repro import faults as _faults
from repro import telemetry as _tel
from repro.telemetry.export import span_records
from repro.telemetry.metrics import quantile_from_bucket_dict
from repro.telemetry.spans import Span

SCHEMA = "repro.telemetry.ledger"
SCHEMA_VERSION = 1

#: Environment variable naming the ledger file; empty/unset disables.
ENV_VAR = "REPRO_LEDGER"


def default_path() -> Optional[str]:
    """The ledger path from ``REPRO_LEDGER``, or ``None`` when unset."""
    path = os.environ.get(ENV_VAR, "").strip()
    return path or None


def enabled() -> bool:
    return default_path() is not None


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


def environment() -> Dict[str, Any]:
    """The provenance block every record carries."""
    # Lazy import: ``repro.backend`` imports ``repro.telemetry``.
    from repro.backend import get_engine

    return {
        "backend": get_engine().name,
        "git_revision": _git_revision(),
        "telemetry_level": _tel.level_name(),
        "pid": os.getpid(),
    }


# ----- snapshot differencing ----------------------------------------------


def diff_snapshots(before: Mapping[str, Any], after: Mapping[str, Any]) -> Dict[str, Any]:
    """The per-run delta between two ``telemetry.snapshot()`` dicts.

    Counters subtract; histograms subtract count/sum and per-bucket
    counts, then re-derive mean and p50/p95/p99 from the delta buckets —
    the registry's own quantiles describe the process lifetime, not the
    run.  Instruments untouched during the run are dropped.
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
        total = float(hist["sum"]) - float(base.get("sum", 0.0))
        base_buckets = base.get("buckets", {})
        buckets = {
            bucket: int(n) - int(base_buckets.get(bucket, 0))
            for bucket, n in hist["buckets"].items()
        }
        histograms[name] = {
            "count": count,
            "sum": total,
            "mean": total / count,
            "p50": quantile_from_bucket_dict(buckets, 0.50),
            "p95": quantile_from_bucket_dict(buckets, 0.95),
            "p99": quantile_from_bucket_dict(buckets, 0.99),
            "buckets": buckets,
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
    """Parse a ledger file, skipping lines of other/newer major schemas."""
    records: List[Dict[str, Any]] = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            record = json.loads(line)
            if record.get("schema") == SCHEMA:
                records.append(record)
    return records


# ----- run capture ---------------------------------------------------------


class RunRecorder:
    """Captures one run: baselines at :func:`begin`, deltas at :meth:`finish`."""

    __slots__ = ("ledger", "name", "_baseline", "_fault_baseline", "record")

    def __init__(self, ledger: Ledger, name: str) -> None:
        self.ledger = ledger
        self.name = name
        self._baseline = _tel.snapshot()
        injector = _faults.active()
        self._fault_baseline = len(injector.log) if injector is not None else 0
        self.record: Optional[Dict[str, Any]] = None

    def finish(
        self,
        span: "Span | Any" = None,
        **attrs: Any,
    ) -> Dict[str, Any]:
        """Write this run's ledger record; returns the stamped record.

        ``span`` is the run's root :class:`Span` (the ``exchange.run`` or
        ``plonk.prove`` region); anything that is not a real span —
        e.g. the shared no-op below trace level — serialises as ``[]``.
        """
        metrics = diff_snapshots(self._baseline, _tel.snapshot())
        injector = _faults.active()
        injected: List[Dict[str, Any]] = []
        if injector is not None:
            for fault in injector.log[self._fault_baseline :]:
                injected.append(
                    {
                        "sequence": fault.sequence,
                        "site": fault.site,
                        "kind": fault.kind,
                        "rule_index": fault.rule_index,
                    }
                )
        self.record = self.ledger.append(
            {
                "name": self.name,
                "attrs": dict(attrs),
                "env": environment(),
                "metrics": metrics,
                "cache_hit_rates": cache_hit_rates(metrics["counters"]),
                "faults": injected,
                "spans": span_records(span) if isinstance(span, Span) else [],
            }
        )
        return self.record


class _NoopRecorder:
    """Returned by :func:`begin` when no ledger path is configured."""

    __slots__ = ()

    def finish(self, span: Any = None, **attrs: Any) -> Dict[str, Any]:
        return {}


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


def begin(name: str, path: Optional[str] = None) -> "Union[RunRecorder, _NoopRecorder]":
    """Start capturing one run into the ledger at ``path`` (or ``REPRO_LEDGER``).

    Returns a no-op recorder when neither is set, so instrumenting a code
    path costs nothing without opt-in::

        rec = ledger.begin("exchange.keysecure")
        with telemetry.span("exchange.run") as root:
            result = run_protocol()
        rec.finish(span=root, success=result.success)
    """
    target = path if path is not None else default_path()
    if target is None:
        return NOOP_RECORDER
    return RunRecorder(writer(target), name)
