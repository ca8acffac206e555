"""The telemetry CLI: ``python -m repro.telemetry {report,diff,flame}``.

Reads the two machine formats the stack emits — run-ledger JSONL files
(:mod:`repro.telemetry.ledger`) and ``BENCH_<slug>.json`` tables
(``benchmarks/conftest.py``) — and turns them into the three things a
developer or a CI job actually wants:

- ``report``  — hot-kernel table (count, total, mean, p50/p95/p99 from
  the fixed-bucket histograms), cache hit rates and fault summary for
  one file;
- ``diff``    — two files side by side, flagging changes beyond a
  tolerance; ``--check`` turns regressions into exit code 1, which is
  the whole CI perf gate;
- ``flame``   — collapsed-stack export of the ledger's span trees
  (``a;b;c <self-µs>`` lines), the input format of every flamegraph
  renderer (flamegraph.pl, speedscope, inferno).

All pure stdlib, no third-party dependencies, same as the rest of the
telemetry layer.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Dict, Iterator, List, Mapping, Optional, Sequence, TextIO, Tuple

from repro.telemetry import ledger as _ledger
from repro.telemetry.metrics import quantile_from_bucket_dict

#: Default relative-change tolerance for ``diff`` (10%).
DEFAULT_TOLERANCE = 0.10


# ----- input loading -------------------------------------------------------


def load_file(path: str) -> Tuple[str, Any]:
    """Sniff and load ``path``; returns ``("ledger", records)`` or
    ``("bench", payload)``."""
    with open(path) as fh:
        text = fh.read()
    stripped = text.strip()
    if not stripped:
        raise SystemExit("%s: empty file" % path)
    # A ledger is one complete JSON object per line; a BENCH table is one
    # pretty-printed object spanning the whole file.
    try:
        first = json.loads(stripped.splitlines()[0])
    except json.JSONDecodeError:
        first = None
    if isinstance(first, dict) and first.get("schema") == _ledger.SCHEMA:
        return "ledger", _ledger.read(path)
    payload = json.loads(stripped)
    if isinstance(payload, dict) and "rows" in payload:
        return "bench", payload
    raise SystemExit(
        "%s: neither a %s ledger nor a BENCH_*.json table" % (path, _ledger.SCHEMA)
    )


# ----- shared aggregation --------------------------------------------------


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
        "ledger: %d record(s), schema %s v%s\n"
        % (
            len(records),
            _ledger.SCHEMA,
            records[0]["schema_version"] if records else _ledger.SCHEMA_VERSION,
        )
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


def report_bench(payload: Mapping[str, Any], out: TextIO) -> None:
    out.write(
        "bench: %s (git %s, backend %s)\n\n"
        % (
            payload.get("title", "?"),
            str(payload.get("git_revision", "?"))[:12],
            payload.get("backend", "?"),
        )
    )
    _table(payload["headers"], payload["rows"], out)
    snapshot = payload.get("telemetry")
    if isinstance(snapshot, dict):
        histograms = snapshot.get("histograms", {})
        latency = {
            name: h
            for name, h in histograms.items()
            if name.split("{")[0].endswith(".seconds")
        }
        if latency:
            out.write("\nhot kernels (registry snapshot):\n")
            rows = [
                (
                    name,
                    str(h["count"]),
                    _seconds(float(h["sum"])),
                    _seconds(float(h.get("mean", 0.0))),
                    _seconds(float(h.get("p50", 0.0))),
                    _seconds(float(h.get("p95", 0.0))),
                    _seconds(float(h.get("p99", 0.0))),
                )
                for name, h in sorted(
                    latency.items(), key=lambda kv: float(kv[1]["sum"]), reverse=True
                )
            ]
            _table(
                ["metric", "count", "total s", "mean s", "p50 s", "p95 s", "p99 s"],
                rows,
                out,
            )


# ----- diff ----------------------------------------------------------------


#: A comparable scalar pulled out of a file: (metric name, value,
#: direction).  Direction is "lower" (regression = increase), "higher"
#: (regression = decrease) or "info" (never gates).
Metric = Tuple[str, float, str]


def _parse_cell(cell: Any) -> Optional[Tuple[float, bool]]:
    """``(value, is_speedup)`` for numeric-looking table cells."""
    text = str(cell).strip()
    speedup = text.endswith("x")
    if speedup:
        text = text[:-1]
    try:
        return float(text), speedup
    except ValueError:
        return None


def bench_metrics(payload: Mapping[str, Any]) -> List[Metric]:
    """Numeric cells of a BENCH table as named, direction-tagged metrics.

    Speedup cells (``1.73x``) gate as higher-is-better: they are
    intra-run ratios, so a committed baseline from one machine is
    comparable with a CI runner's measurement.  Raw seconds cells are
    reported but never gate — absolute wall-clock does not transfer
    across machines, and a real substrate regression moves the ratio
    anyway.  Rows mentioning "floor" or "required" are policy lines, not
    data, and are skipped entirely.
    """
    headers = [str(h) for h in payload.get("headers", [])]
    metrics: List[Metric] = []
    for row in payload.get("rows", []):
        label = str(row[0]) if row else ""
        if "floor" in label.lower() or "required" in label.lower():
            continue
        for header, cell in zip(headers[1:], list(row)[1:]):
            parsed = _parse_cell(cell)
            if parsed is None:
                continue
            value, speedup = parsed
            direction = "higher" if speedup else "info"
            metrics.append(("%s / %s" % (label, header.strip()), value, direction))
    return metrics


def ledger_metrics(records: List[Dict[str, Any]]) -> List[Metric]:
    """Gateable metrics of a ledger: latency means plus bench-table cells."""
    metrics: List[Metric] = []
    for name, hist in sorted(merge_histograms(records).items()):
        if name.split("{")[0].endswith(".seconds"):
            metrics.append(("%s mean" % name, float(hist["mean"]), "lower"))
        else:
            metrics.append(("%s mean" % name, float(hist["mean"]), "info"))
    for name, value in sorted(merge_counters(records).items()):
        metrics.append((name, float(value), "info"))
    for record in records:
        attrs = record.get("attrs", {})
        if "rows" in attrs and "headers" in attrs:
            for name, value, direction in bench_metrics(attrs):
                metrics.append(
                    ("%s / %s" % (record.get("name", "?"), name), value, direction)
                )
    return metrics


def extract_metrics(kind: str, data: Any) -> List[Metric]:
    return bench_metrics(data) if kind == "bench" else ledger_metrics(data)


def diff_metrics(
    a: Sequence[Metric], b: Sequence[Metric], tolerance: float
) -> Tuple[List[Tuple[str, str, str, str, str]], List[str]]:
    """Rows for the diff table plus the list of regressed metric names."""
    b_by_name = {name: (value, direction) for name, value, direction in b}
    rows: List[Tuple[str, str, str, str, str]] = []
    regressions: List[str] = []
    for name, old, direction in a:
        entry = b_by_name.pop(name, None)
        if entry is None:
            rows.append((name, "%.6g" % old, "-", "removed", ""))
            continue
        new = entry[0]
        if old == 0:
            change = 0.0 if new == 0 else float("inf")
        else:
            change = (new - old) / abs(old)
        flag = ""
        if direction == "lower" and change > tolerance:
            flag = "REGRESSION"
        elif direction == "higher" and change < -tolerance:
            flag = "REGRESSION"
        elif direction != "info" and abs(change) > tolerance:
            flag = "improved"
        if flag == "REGRESSION":
            regressions.append(name)
        rows.append((name, "%.6g" % old, "%.6g" % new, "%+.1f%%" % (change * 100), flag))
    for name, (value, _) in sorted(b_by_name.items()):
        rows.append((name, "-", "%.6g" % value, "added", ""))
    return rows, regressions


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
    kind, data = load_file(args.file)
    if kind == "ledger":
        report_ledger(data, sys.stdout)
    else:
        report_bench(data, sys.stdout)
    return 0


def cmd_diff(args: argparse.Namespace) -> int:
    kind_a, data_a = load_file(args.old)
    kind_b, data_b = load_file(args.new)
    if kind_a != kind_b:
        raise SystemExit(
            "cannot diff a %s file against a %s file" % (kind_a, kind_b)
        )
    rows, regressions = diff_metrics(
        extract_metrics(kind_a, data_a),
        extract_metrics(kind_b, data_b),
        args.tolerance,
    )
    sys.stdout.write(
        "diff (%s) tolerance ±%.0f%%: %s -> %s\n\n"
        % (kind_a, args.tolerance * 100, args.old, args.new)
    )
    _table(["metric", "old", "new", "change", ""], rows, sys.stdout)
    if regressions:
        sys.stdout.write(
            "\n%d regression(s) beyond tolerance:\n" % len(regressions)
        )
        for name in regressions:
            sys.stdout.write("  %s\n" % name)
        return 1 if args.check else 0
    sys.stdout.write("\nno regressions beyond tolerance\n")
    return 0


def cmd_flame(args: argparse.Namespace) -> int:
    kind, data = load_file(args.file)
    if kind != "ledger":
        raise SystemExit("flame needs a ledger file (BENCH tables have no spans)")
    lines = list(collapsed_stacks(data))
    out: TextIO
    if args.out:
        with open(args.out, "w") as fh:
            fh.write("\n".join(lines) + ("\n" if lines else ""))
        sys.stdout.write("wrote %d stack(s) to %s\n" % (len(lines), args.out))
    else:
        for line in lines:
            sys.stdout.write(line + "\n")
    if not lines:
        sys.stdout.write(
            "no spans in ledger (record runs with REPRO_TELEMETRY=trace)\n"
        )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.telemetry",
        description="Read, diff and export repro telemetry artifacts.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_report = sub.add_parser(
        "report", help="hot-kernel table, cache hit rates, quantiles"
    )
    p_report.add_argument("file", help="ledger .jsonl or BENCH_*.json")
    p_report.set_defaults(func=cmd_report)

    p_diff = sub.add_parser("diff", help="compare two ledgers or two BENCH files")
    p_diff.add_argument("old")
    p_diff.add_argument("new")
    p_diff.add_argument(
        "--tolerance",
        type=float,
        default=DEFAULT_TOLERANCE,
        help="relative change treated as noise (default %.2f)" % DEFAULT_TOLERANCE,
    )
    p_diff.add_argument(
        "--check",
        action="store_true",
        help="exit 1 when any regression exceeds the tolerance (CI gate)",
    )
    p_diff.set_defaults(func=cmd_diff)

    p_flame = sub.add_parser(
        "flame", help="collapsed-stack flamegraph export of ledger span trees"
    )
    p_flame.add_argument("file", help="ledger .jsonl")
    p_flame.add_argument("--out", default=None, help="write stacks to a file")
    p_flame.set_defaults(func=cmd_flame)
    return parser


def main(argv: "Sequence[str] | None" = None) -> int:
    args = build_parser().parse_args(argv)
    result = args.func(args)
    return int(result)
