"""zklint: zk-aware static analysis for the ZKDET reproduction.

Generic linters cannot see the invariants this codebase lives or dies
by; this package turns them into CI failures.  Nine rules ship, run in
two phases: every module is first folded into a whole-program
:class:`~repro.analysis.graph.Project` (import/call graph, symbol
resolution, attribute types) with a CFG-lite per-function path model
(:mod:`repro.analysis.flow`), then the rules query both:

=========  =============================================================
FS-001     Fiat-Shamir transcript discipline (frozen-heart bug class)
SEC-001    secret material must not leak into exceptions/telemetry/JSON
           (taint propagates one call level through the project graph)
DET-001    no entropy or clock sources on the prover/verifier path
FLD-001    no literal moduli, no floats outside the measurement layers
ENG-001    protocol code routes kernels through the engine; kernels
           record their telemetry counters
ASYNC-001  no blocking calls (``time.sleep``, sync I/O, ``Process.join``,
           ``lock.acquire``) inside ``async def`` in the service plane
RES-001    every process / pipe / ledger acquire is released on all
           CFG paths, exceptional ones included
FORK-001   no threads, event loops, sockets or held locks captured
           across a ``Process`` fork (prover workers, MSM helpers)
FLT-002    registered fault sites on driver paths are wrapped in a
           ``RetryPolicy`` or an explicit abort/refund handler
=========  =============================================================

Run it as a module (the CI ``analyze`` job does exactly this)::

    python -m repro.analysis --strict src

Suppress a single deliberate site with a per-line pragma::

    beta = t.challenge(b"beta")  # zklint: disable=FS-001

or accept pre-existing findings wholesale in ``analysis_baseline.json``
(``--write-baseline`` regenerates it); ``--report-suppressions``
itemises the pragma debt and ``--format sarif`` feeds GitHub
code-scanning.  See ``docs/static_analysis.md`` for the rule catalogue
with before/after examples and the whole-program architecture notes.
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
from repro.analysis.flow import FlowGraph, build_flow
from repro.analysis.graph import Project, build_project
from repro.analysis.pragmas import line_suppressions
from repro.analysis.reporters import (
    render_json,
    render_sarif,
    render_suppressions,
    render_text,
)
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
    "FlowGraph",
    "ModuleInfo",
    "Project",
    "Rule",
    "analyze_paths",
    "build_flow",
    "build_project",
    "collect_files",
    "line_suppressions",
    "load_baseline",
    "module_rel",
    "render_json",
    "render_sarif",
    "render_suppressions",
    "render_text",
    "write_baseline",
]
