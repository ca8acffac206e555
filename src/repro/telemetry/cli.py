"""The telemetry CLI: ``python -m repro.telemetry {report,flame}``.

Reads run-ledger JSONL files (:mod:`repro.telemetry.ledger`), the one
format the stack writes, and turns them into the two things a developer
or a CI job wants:

- ``report``  — hot-kernel table (count, total, mean, p50/p95/p99
  derived from the fixed-bucket histogram deltas), cache hit rates
  derived from the cache counters, and a fault summary;
- ``flame``   — collapsed-stack export of the ledger's span trees
  (``a;b;c <self-µs>`` lines on stdout), the input format of every
  flamegraph renderer (flamegraph.pl, speedscope, inferno).

Comparing two runs is ``benchmarks/e2e/compare.py``'s job.  All pure
stdlib, same as the rest of the telemetry layer.
"""

from __future__ import annotations

import argparse
import sys
from typing import Any, Dict, Iterator, List, Mapping, Optional, Sequence, TextIO

from repro.telemetry import ledger as _ledger
from repro.telemetry.metrics import quantile_from_bucket_dict


def load_file(path: str) -> List[Dict[str, Any]]:
    """The records of the ledger at ``path``; anything else is a usage error."""
    try:
        records = _ledger.read(path)
    except (OSError, ValueError) as exc:  # a JSON decode error is a ValueError
        raise SystemExit("%s: %s" % (path, exc))
    if not records:
        raise SystemExit(
            "%s: no %s v%d records" % (path, _ledger.SCHEMA, _ledger.SCHEMA_VERSION)
        )
    return records


# ----- aggregation ---------------------------------------------------------


def merge_histograms(records: Sequence[Mapping[str, Any]]) -> Dict[str, Dict[str, Any]]:
    """Sum per-record histogram deltas across a ledger, keyed by metric."""
    merged: Dict[str, Dict[str, Any]] = {}
    for record in records:
        for name, hist in record.get("metrics", {}).get("histograms", {}).items():
            agg = merged.get(name)
            if agg is None:
                merged[name] = {
                    "count": int(hist["count"]),
                    "sum": float(hist["sum"]),
                    "buckets": dict(hist["buckets"]),
                }
                continue
            agg["count"] += int(hist["count"])
            agg["sum"] += float(hist["sum"])
            for bucket, n in hist["buckets"].items():
                agg["buckets"][bucket] = agg["buckets"].get(bucket, 0) + int(n)
    for agg in merged.values():
        agg["mean"] = agg["sum"] / agg["count"] if agg["count"] else 0.0
        for q, label in ((0.50, "p50"), (0.95, "p95"), (0.99, "p99")):
            agg[label] = quantile_from_bucket_dict(agg["buckets"], q)
    return merged


def merge_counters(records: Sequence[Mapping[str, Any]]) -> Dict[str, int]:
    merged: Dict[str, int] = {}
    for record in records:
        for name, value in record.get("metrics", {}).get("counters", {}).items():
            merged[name] = merged.get(name, 0) + int(value)
    return merged


def _table(headers: Sequence[str], rows: Sequence[Sequence[str]], out: TextIO) -> None:
    widths = [
        max(len(str(h)), max((len(str(r[i])) for r in rows), default=0))
        for i, h in enumerate(headers)
    ]
    line = "  ".join(str(h).ljust(w) for h, w in zip(headers, widths))
    out.write(line + "\n")
    out.write("-" * len(line) + "\n")
    for row in rows:
        out.write("  ".join(str(c).ljust(w) for c, w in zip(row, widths)) + "\n")


# ----- report --------------------------------------------------------------


def _seconds(value: float) -> str:
    return "%.4f" % value


def report_ledger(records: List[Dict[str, Any]], out: TextIO) -> None:
    out.write(
        "ledger: %d record(s), schema %s v%d\n"
        % (len(records), _ledger.SCHEMA, _ledger.SCHEMA_VERSION)
    )
    names: Dict[str, int] = {}
    for record in records:
        names[record.get("name", "?")] = names.get(record.get("name", "?"), 0) + 1
    out.write(
        "runs: %s\n" % ", ".join("%s x%d" % (n, c) for n, c in sorted(names.items()))
    )
    histograms = merge_histograms(records)
    latency = {
        name: h for name, h in histograms.items() if name.split("{")[0].endswith(".seconds")
    }
    if latency:
        out.write("\nhot kernels (by total seconds):\n")
        rows = [
            (
                name,
                str(h["count"]),
                _seconds(h["sum"]),
                _seconds(h["mean"]),
                _seconds(h["p50"]),
                _seconds(h["p95"]),
                _seconds(h["p99"]),
            )
            for name, h in sorted(
                latency.items(), key=lambda kv: kv[1]["sum"], reverse=True
            )
        ]
        _table(
            ["metric", "count", "total s", "mean s", "p50 s", "p95 s", "p99 s"],
            rows,
            out,
        )
    counters = merge_counters(records)
    rates = _ledger.cache_hit_rates(counters)
    if rates:
        out.write("\ncache hit rates:\n")
        _table(
            ["cache", "hit rate"],
            [(cache, "%.1f%%" % (rate * 100)) for cache, rate in sorted(rates.items())],
            out,
        )
    faults = [fault for record in records for fault in record.get("faults", [])]
    if faults:
        out.write("\ninjected faults: %d\n" % len(faults))
        by_site: Dict[str, int] = {}
        for fault in faults:
            by_site["%s/%s" % (fault["site"], fault["kind"])] = (
                by_site.get("%s/%s" % (fault["site"], fault["kind"]), 0) + 1
            )
        _table(["site/kind", "count"], sorted((s, str(c)) for s, c in by_site.items()), out)


# ----- flame ---------------------------------------------------------------


def collapsed_stacks(records: Sequence[Mapping[str, Any]]) -> Iterator[str]:
    """Yield ``a;b;c <self-µs>`` lines from every span tree in a ledger.

    Self time is a span's duration minus its children's — the flamegraph
    convention, so stack widths sum correctly when renderers re-add the
    hierarchy.  Spans from all records fold into one graph (identical
    stacks accumulate downstream; renderers sum duplicate lines).
    """
    for record in records:
        spans = record.get("spans", [])
        by_id = {span["id"]: span for span in spans}
        child_time: Dict[int, float] = {}
        for span in spans:
            if span.get("parent") is not None:
                child_time[span["parent"]] = (
                    child_time.get(span["parent"], 0.0) + float(span["duration"])
                )
        for span in spans:
            stack: List[str] = []
            node: Optional[Mapping[str, Any]] = span
            while node is not None:
                stack.append(str(node["name"]).replace(";", ","))
                parent = node.get("parent")
                node = by_id.get(parent) if parent is not None else None
            self_us = (float(span["duration"]) - child_time.get(span["id"], 0.0)) * 1e6
            if self_us >= 1.0:
                yield "%s %d" % (";".join(reversed(stack)), int(self_us))


# ----- entry points --------------------------------------------------------


def cmd_report(args: argparse.Namespace) -> int:
    report_ledger(load_file(args.file), sys.stdout)
    return 0


def cmd_flame(args: argparse.Namespace) -> int:
    lines = list(collapsed_stacks(load_file(args.file)))
    for line in lines:
        sys.stdout.write(line + "\n")
    if not lines:
        sys.stdout.write(
            "no spans in ledger (record runs with REPRO_TELEMETRY=on)\n"
        )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.telemetry",
        description="Read and export repro run ledgers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_report = sub.add_parser(
        "report", help="hot-kernel table, cache hit rates, quantiles"
    )
    p_report.add_argument("file", help="ledger .jsonl")
    p_report.set_defaults(func=cmd_report)

    p_flame = sub.add_parser(
        "flame", help="collapsed-stack flamegraph export of ledger span trees"
    )
    p_flame.add_argument("file", help="ledger .jsonl")
    p_flame.set_defaults(func=cmd_flame)
    return parser


def main(argv: "Sequence[str] | None" = None) -> int:
    args = build_parser().parse_args(argv)
    result = args.func(args)
    return int(result)
