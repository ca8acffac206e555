"""``python -m repro.analysis`` — the zklint command-line interface.

Exit codes:

- ``0`` — no (or only baselined) findings; also any non-strict run,
  which is advisory by design so the suite can be previewed anywhere,
- ``1`` — ``--strict`` and at least one new finding or parse error,
- ``2`` — usage error (argparse).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Sequence

from repro.analysis.baseline import (
    DEFAULT_BASELINE_NAME,
    BaselineError,
    load_baseline,
    write_baseline,
)
from repro.analysis.config import DEFAULT_CONFIG
from repro.analysis.engine import analyze_paths
from repro.analysis.reporters import (
    render_json,
    render_suppressions,
    render_text,
)
from repro.analysis.rules import ALL_RULES, RULES_BY_ID


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="zk-aware static analysis (zklint) for the ZKDET reproduction",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to analyse (default: src)",
    )
    parser.add_argument(
        "--strict",
        action="store_true",
        help="exit 1 on any new (non-baselined) finding or parse error",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="report format (default: text)",
    )
    parser.add_argument(
        "--report-suppressions",
        action="store_true",
        help="print the pragma-suppression debt summary instead of findings",
    )
    parser.add_argument(
        "--output",
        metavar="FILE",
        default=None,
        help="write the report to FILE instead of stdout",
    )
    parser.add_argument(
        "--baseline",
        metavar="FILE",
        default=DEFAULT_BASELINE_NAME,
        help="baseline file of accepted findings (default: %s)" % DEFAULT_BASELINE_NAME,
    )
    parser.add_argument(
        "--no-baseline",
        action="store_true",
        help="ignore the baseline file entirely",
    )
    parser.add_argument(
        "--write-baseline",
        action="store_true",
        help="accept every current finding into the baseline file and exit 0",
    )
    parser.add_argument(
        "--rules",
        metavar="IDS",
        default=None,
        help="comma-separated rule ids to run (default: all: %s)"
        % ",".join(sorted(RULES_BY_ID)),
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalogue and exit",
    )
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule in ALL_RULES:
            print("%s  %s" % (rule.rule_id, rule.title))
        return 0

    rules = None
    if args.rules:
        wanted = [part.strip().upper() for part in args.rules.split(",") if part.strip()]
        unknown = [rule_id for rule_id in wanted if rule_id not in RULES_BY_ID]
        if unknown:
            parser.error("unknown rule id(s): %s" % ", ".join(unknown))
        rules = [RULES_BY_ID[rule_id] for rule_id in wanted]

    try:
        baseline = set() if args.no_baseline else load_baseline(args.baseline)
    except BaselineError as exc:
        print("zklint: %s" % exc, file=sys.stderr)
        return 1

    result = analyze_paths(args.paths, DEFAULT_CONFIG, rules=rules, baseline=baseline)

    if args.write_baseline:
        accepted = result.findings + result.baselined
        write_baseline(args.baseline, accepted)
        print(
            "zklint: wrote %d finding(s) to %s" % (len(accepted), args.baseline),
            file=sys.stderr,
        )
        return 0

    if args.report_suppressions:
        report = render_suppressions(result)
    elif args.format == "json":
        report = render_json(result, args.strict)
    else:
        report = render_text(result, args.strict)
    if args.output:
        Path(args.output).parent.mkdir(parents=True, exist_ok=True)
        Path(args.output).write_text(report + "\n")
    else:
        print(report)

    if args.strict and result.failed:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
