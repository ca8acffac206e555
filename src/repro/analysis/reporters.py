"""Text and JSON reporters for zklint results.

The text form is for humans and CI logs; the JSON form is the machine
surface uploaded as a CI artifact alongside the benchmark payloads, so
it carries the same shape conventions (a ``schema_version`` plus a flat
summary block).  Both derive their rule catalogue from
:data:`~repro.analysis.rules.ALL_RULES` — there is no hand-maintained
rule table to drift.
"""

from __future__ import annotations

import json

from repro.analysis.engine import AnalysisResult
from repro.analysis.findings import Finding
from repro.analysis.rules import ALL_RULES

REPORT_SCHEMA_VERSION = 1


def render_text(result: AnalysisResult, strict: bool) -> str:
    """Human-readable report: one line per finding plus a summary."""
    out: list[str] = []
    for error in result.errors:
        out.append("ERROR %s" % error)
    for finding in result.findings:
        out.append(finding.render())
        if finding.snippet:
            out.append("    %s" % finding.snippet)
    summary = (
        "zklint: %d file(s) scanned, %d finding(s), %d baselined, %d error(s)"
        % (
            result.files_scanned,
            len(result.findings),
            len(result.baselined),
            len(result.errors),
        )
    )
    if result.findings and not strict:
        summary += " (advisory mode; rerun with --strict to fail)"
    out.append(summary)
    return "\n".join(out)


def render_json(result: AnalysisResult, strict: bool) -> str:
    """Machine-readable report (stable key order for diffable artifacts)."""
    payload = {
        "schema_version": REPORT_SCHEMA_VERSION,
        "tool": "repro.analysis",
        "strict": strict,
        "rules": {rule.rule_id: rule.title for rule in ALL_RULES},
        "summary": {
            "files_scanned": result.files_scanned,
            "findings": len(result.findings),
            "baselined": len(result.baselined),
            "errors": len(result.errors),
            "failed": bool(strict and result.failed),
        },
        "findings": [finding.as_dict() for finding in result.findings],
        "baselined": [finding.as_dict() for finding in result.baselined],
        "errors": list(result.errors),
    }
    return json.dumps(payload, indent=2, sort_keys=False)


def render_suppressions(result: AnalysisResult) -> str:
    """The pragma-debt summary behind ``--report-suppressions``.

    Every finding a ``# zklint: disable=`` pragma silenced, grouped by
    rule with per-file locations — so suppression debt is reviewable the
    same way baseline debt is, instead of invisible.
    """
    out: list[str] = []
    by_rule: dict[str, list[Finding]] = {}
    for finding in result.suppressed:
        by_rule.setdefault(finding.rule, []).append(finding)
    total = len(result.suppressed)
    out.append(
        "zklint suppression debt: %d finding(s) silenced by pragmas across %d rule(s)"
        % (total, len(by_rule))
    )
    for rule_id in sorted(by_rule):
        findings = by_rule[rule_id]
        title = next(
            (r.title for r in ALL_RULES if r.rule_id == rule_id), ""
        )
        out.append("")
        out.append("%s (%d) — %s" % (rule_id, len(findings), title))
        for finding in findings:
            out.append("  %s:%d:%d: %s" % (finding.path, finding.line, finding.col, finding.message))
    if not by_rule:
        out.append("(clean: no active pragmas hide anything)")
    return "\n".join(out)
