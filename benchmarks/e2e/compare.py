"""Compare two sets of benchmark runs, metric by metric.

    python3 benchmarks/e2e/compare.py BASE.jsonl CANDIDATE.jsonl

Each file holds run records appended by ``run.py --out``.  For every
workload x end-to-end metric the tool prints each side's median and
quartiles and one verdict, by the metric's bound in BENCHMARK.json:

- ``regressed``  the candidate's median is worse than the base's by more
  than the bound;
- ``improved``   it is better by more than the bound;
- ``unchanged``  it is within the bound either way;
- ``unresolved`` the run-to-run spread (quartile distance over median, the
  wider side) exceeds the bound, so the runs cannot tell — unless every run
  of one side beats every run of the other, which settles it.

Exit status 1 if anything regressed, 2 if the files cannot be compared.
Two sets taken from one commit are the noise check: every verdict must be
``unchanged``.
"""

from __future__ import annotations

import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


class Incomparable(Exception):
    """The two files cannot be compared (mixed modes, nothing in common)."""


def load_runs(path: str) -> list[dict]:
    with open(path) as fh:
        runs = [json.loads(line) for line in fh if line.strip()]
    return [run for run in runs if not run.get("trace")]


def load_bounds(path: str | None = None) -> dict[str, dict]:
    with open(path or os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {metric["name"]: metric for metric in spec["end_to_end"]}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3); a single run is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(base: list[float], cand: list[float], bound: float, better: str) -> str:
    sign = 1.0 if better == "lower" else -1.0
    b_q1, b_med, b_q3 = quartiles(base)
    c_q1, c_med, c_q3 = quartiles(cand)
    worse = sign * (c_med - b_med) / b_med  # > 0: the candidate is worse
    spread = max((b_q3 - b_q1) / b_med, (c_q3 - c_q1) / c_med)
    if spread <= bound:
        if worse > bound:
            return "regressed"
        return "improved" if worse < -bound else "unchanged"
    every_worse = min(sign * c for c in cand) > max(sign * b for b in base)
    every_better = max(sign * c for c in cand) < min(sign * b for b in base)
    if every_worse and worse > bound:
        return "regressed"
    if every_better:
        return "improved"
    return "unresolved"


def group(runs: list[dict]) -> dict[str, dict[str, list[float]]]:
    """workload -> metric -> values, in run order."""
    out: dict[str, dict[str, list[float]]] = {}
    for run in runs:
        metrics = out.setdefault(run["workload"], {})
        for name, entry in run["metrics"].items():
            metrics.setdefault(name, []).append(entry["value"])
    return out


def compare(base_runs: list[dict], cand_runs: list[dict], bounds: dict[str, dict]) -> list[tuple]:
    """Rows of (workload, metric, base quartiles, candidate quartiles, verdict)."""
    modes = {bool(run.get("quick")) for run in base_runs + cand_runs}
    if len(modes) > 1:
        raise Incomparable("--quick records are not comparable with full runs; re-run one side")
    base, cand = group(base_runs), group(cand_runs)
    shared = [w for w in base if w in cand]
    if not shared:
        raise Incomparable("the two files have no workload in common")
    rows = []
    for workload in shared:
        for metric, spec in bounds.items():
            b, c = base[workload].get(metric), cand[workload].get(metric)
            if not b or not c:
                continue
            rows.append((
                workload, metric, quartiles(b), quartiles(c), len(b), len(c),
                verdict(b, c, spec["bound"], spec["better"]),
            ))
    return rows


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip().split("\n\n")[0] + "\n\nusage: compare.py BASE.jsonl CANDIDATE.jsonl",
              file=sys.stderr)
        return 2
    try:
        rows = compare(load_runs(argv[0]), load_runs(argv[1]), load_bounds())
    except Incomparable as exc:
        print("compare: %s" % exc, file=sys.stderr)
        return 2
    print("%-15s %-17s %-38s %-38s %s" % (
        "workload", "metric", "base q1 / median / q3 (n)", "candidate q1 / median / q3 (n)",
        "verdict"))
    for workload, metric, b, c, nb, nc, word in rows:
        print("%-15s %-17s %-38s %-38s %s" % (
            workload, metric,
            "%.5g / %.5g / %.5g (%d)" % (*b, nb),
            "%.5g / %.5g / %.5g (%d)" % (*c, nc),
            word,
        ))
    return 1 if any(row[-1] == "regressed" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
