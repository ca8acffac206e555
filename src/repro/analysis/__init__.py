"""zklint: zk-aware static analysis for the ZKDET reproduction.

Generic linters cannot see the invariants this codebase lives or dies
by; this package turns them into CI failures.  Four rules ship, each a
per-module pass over the stdlib :mod:`ast` of one file:

=========  =============================================================
FS-001     Fiat-Shamir transcript discipline (frozen-heart bug class)
DET-001    no entropy or clock sources on the prover/verifier path
FLD-001    no literal moduli, no floats outside the measurement layers
ENG-001    protocol code routes kernels through the engine; kernels
           record their telemetry counters
=========  =============================================================

Run it as a module (the CI ``analyze`` job does exactly this)::

    python -m repro.analysis --strict src

Suppress a single deliberate site with a per-line pragma::

    beta = t.challenge(b"beta")  # zklint: disable=FS-001

or accept pre-existing findings wholesale in ``analysis_baseline.json``
(``--write-baseline`` regenerates it); ``--report-suppressions``
itemises the pragma debt.  See ``docs/static_analysis.md`` for the rule
catalogue with before/after examples, and for the retired rules and the
tests that now check what they guarded.
"""

from __future__ import annotations

from repro.analysis.baseline import (
    DEFAULT_BASELINE_NAME,
    BaselineError,
    load_baseline,
    write_baseline,
)
from repro.analysis.config import DEFAULT_CONFIG, AnalysisConfig
from repro.analysis.engine import (
    AnalysisResult,
    ModuleInfo,
    analyze_paths,
    collect_files,
    module_rel,
)
from repro.analysis.findings import Finding
from repro.analysis.pragmas import line_suppressions
from repro.analysis.reporters import render_json, render_suppressions, render_text
from repro.analysis.rules import ALL_RULES, RULES_BY_ID, Rule

__all__ = [
    "ALL_RULES",
    "RULES_BY_ID",
    "AnalysisConfig",
    "AnalysisResult",
    "BaselineError",
    "DEFAULT_BASELINE_NAME",
    "DEFAULT_CONFIG",
    "Finding",
    "ModuleInfo",
    "Rule",
    "analyze_paths",
    "collect_files",
    "line_suppressions",
    "load_baseline",
    "module_rel",
    "render_json",
    "render_suppressions",
    "render_text",
    "write_baseline",
]
