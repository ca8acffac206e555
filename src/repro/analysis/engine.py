"""The zklint analysis engine: discover files, parse, run, filter.

The pipeline is deliberately boring, one module at a time:

1. collect ``*.py`` files under the given paths (``__pycache__`` skipped),
2. parse each with stdlib :mod:`ast` (never importing the target code),
3. run every enabled rule's :meth:`~repro.analysis.rules.Rule.check`
   over the module,
4. set aside findings suppressed by a per-line pragma (kept on the
   result for ``--report-suppressions``),
5. split the rest into *new* vs *baselined* against the committed
   baseline.

Module paths are reported relative to the invocation (``display``) and
matched against rule scopes via a package-relative path (``rel``): the
part after the last ``repro/`` component, so ``src/repro/plonk/prover.py``
and a test fixture at ``tests/fixtures/zklint/repro/plonk/bad.py`` both
scope as ``plonk/prover.py`` / ``plonk/bad.py``.
"""

from __future__ import annotations

import ast
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

from repro.analysis.baseline import partition
from repro.analysis.config import DEFAULT_CONFIG, AnalysisConfig
from repro.analysis.findings import Finding
from repro.analysis.pragmas import is_suppressed, line_suppressions
from repro.analysis.rules import ALL_RULES, Rule


@dataclass
class ModuleInfo:
    """One parsed source file handed to every rule."""

    path: Path
    display: str
    rel: str
    source: str
    lines: list[str]
    tree: ast.Module
    functions: list[ast.FunctionDef | ast.AsyncFunctionDef] = field(default_factory=list)


@dataclass
class AnalysisResult:
    """Outcome of one run: new findings, baselined findings, parse errors."""

    findings: list[Finding]
    baselined: list[Finding]
    errors: list[str]
    files_scanned: int = 0
    #: Findings silenced by a per-line pragma — the suppression debt the
    #: ``--report-suppressions`` summary itemises.  Never gates.
    suppressed: list[Finding] = field(default_factory=list)

    @property
    def failed(self) -> bool:
        """True when a strict run must exit non-zero."""
        return bool(self.findings or self.errors)


def module_rel(path: Path) -> str:
    """Package-relative posix path: the part after the last ``repro/``."""
    parts = path.as_posix().split("/")
    if "repro" in parts[:-1]:
        index = len(parts) - 1 - parts[::-1].index("repro")
        return "/".join(parts[index + 1 :])
    return path.name


def collect_files(paths: Sequence[str | Path]) -> list[Path]:
    """Expand files/directories into a sorted, deduplicated file list."""
    seen: set[Path] = set()
    out: list[Path] = []
    for raw in paths:
        root = Path(raw)
        if root.is_file():
            candidates: Iterable[Path] = [root]
        else:
            candidates = sorted(root.rglob("*.py"))
        for candidate in candidates:
            if "__pycache__" in candidate.parts:
                continue
            resolved = candidate.resolve()
            if resolved in seen:
                continue
            seen.add(resolved)
            out.append(candidate)
    return out


def load_module(path: Path) -> ModuleInfo:
    """Parse ``path``; raises SyntaxError/OSError for the caller to report."""
    source = path.read_text(encoding="utf-8")
    tree = ast.parse(source, filename=str(path))
    functions = [
        node
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    ]
    display = path.as_posix()
    if not path.is_absolute():
        display = os.path.normpath(display).replace(os.sep, "/")
    return ModuleInfo(
        path=path,
        display=display,
        rel=module_rel(path),
        source=source,
        lines=source.splitlines(),
        tree=tree,
        functions=functions,
    )


def analyze_paths(
    paths: Sequence[str | Path],
    config: AnalysisConfig = DEFAULT_CONFIG,
    rules: Sequence[Rule] | None = None,
    baseline: set[tuple[str, str, str]] | None = None,
) -> AnalysisResult:
    """Run the rule suite over ``paths`` and return the filtered result."""
    active_rules = list(ALL_RULES) if rules is None else list(rules)
    files = collect_files(paths)
    errors: list[str] = []
    modules: list[ModuleInfo] = []
    for file_path in files:
        try:
            modules.append(load_module(file_path))
        except SyntaxError as exc:
            errors.append("%s: syntax error: %s" % (file_path.as_posix(), exc.msg))
        except OSError as exc:
            errors.append("%s: unreadable: %s" % (file_path.as_posix(), exc))
    # Pragma-suppressed findings are partitioned off, not dropped.
    raw: list[Finding] = []
    suppressed: list[Finding] = []
    for module in modules:
        suppressions = line_suppressions(module.source)
        for rule in active_rules:
            for finding in rule.check(module, config):
                if is_suppressed(finding.rule, finding.line, suppressions):
                    suppressed.append(finding)
                    continue
                raw.append(finding)
    raw.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    suppressed.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    new, old = partition(raw, baseline or set())
    return AnalysisResult(
        findings=new,
        baselined=old,
        errors=errors,
        files_scanned=len(files),
        suppressed=suppressed,
    )
