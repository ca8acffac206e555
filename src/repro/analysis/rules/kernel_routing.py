"""ENG-001 — kernel routing and kernel accountability.

Two invariants from the compute-backend architecture (PR 1-3):

- **Protocol modules route through the engine.**  ``kzg/``, ``plonk/``
  and ``groth16/`` must not import NTT/MSM/pairing internals from
  ``repro.field.ntt`` / ``repro.curve.msm`` / ``repro.curve.pairing``;
  a direct call bypasses backend selection, the engine caches (SRS
  Jacobian views, coset-eval memo, prepared-G2 LRU) *and* the telemetry
  counters, so the split backend silently stops applying and the
  metrics lie.  Pure constants (``COSET_SHIFT``) are exempt.
- **Every engine kernel counts AND times.**  Each public kernel method
  on an :class:`repro.backend.engine.Engine` subclass must contain both
  a counter/histogram recording call (``_tel.counter``, ``_record_*``,
  ...) *and* a ``telemetry.kernel_timer`` call — the cache-accounting
  tests treat the counters as the source of truth, and the telemetry
  CLI's hot-kernel table ranks kernels by the timer's
  ``engine.kernel.seconds`` histogram; a kernel that forgets either
  undercounts (or un-times) every backend.
"""

from __future__ import annotations

import ast
from typing import TYPE_CHECKING, Iterator

from repro.analysis.astutil import dotted_name
from repro.analysis.findings import Finding
from repro.analysis.rules import Rule

if TYPE_CHECKING:  # pragma: no cover
    from repro.analysis.config import AnalysisConfig
    from repro.analysis.engine import ModuleInfo

#: Call shapes that count as "records telemetry": the engine's module
#: aliases (``_tel.counter`` / ``telemetry.histogram``) and its local
#: ``_record_ntt`` / ``_record_cache`` helpers.
_RECORD_ATTRS = frozenset({"counter", "histogram"})
_RECORD_PREFIX = "_record_"


class KernelRouting(Rule):
    rule_id = "ENG-001"
    title = "protocol code routes kernels through the engine; kernels record telemetry"

    def check(self, module: "ModuleInfo", config: "AnalysisConfig") -> Iterator[Finding]:
        if module.rel.startswith(tuple(config.protocol_scopes)):
            yield from self._check_protocol_imports(module, config)
        if module.rel.startswith(tuple(config.backend_scopes)):
            yield from self._check_kernel_telemetry(module, config)

    # ----- protocol side --------------------------------------------------

    def _check_protocol_imports(
        self, module: "ModuleInfo", config: "AnalysisConfig"
    ) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name in config.banned_kernel_modules:
                        yield self.finding(
                            module,
                            node.lineno,
                            node.col_offset,
                            "protocol module %r imports kernel module %r directly "
                            "— route through the compute engine (engine.ntt / "
                            "engine.msm_g1 / engine.pairing_check)"
                            % (module.rel, alias.name),
                        )
            elif isinstance(node, ast.ImportFrom):
                if node.module not in config.banned_kernel_modules:
                    continue
                for alias in node.names:
                    if alias.name in config.allowed_kernel_names:
                        continue
                    yield self.finding(
                        module,
                        node.lineno,
                        node.col_offset,
                        "protocol module %r imports %r from kernel module %r — "
                        "route through the compute engine so backend selection, "
                        "caches and telemetry apply"
                        % (module.rel, alias.name, node.module),
                    )

    # ----- backend side ---------------------------------------------------

    def _kernel_accounting(
        self,
        func: ast.FunctionDef | ast.AsyncFunctionDef,
        config: "AnalysisConfig",
    ) -> tuple[bool, bool]:
        """``(counts, times)`` — which halves of the contract the body has."""
        counts = times = False
        for node in ast.walk(func):
            if not isinstance(node, ast.Call):
                continue
            callee = dotted_name(node.func)
            if callee is None:
                continue
            leaf = callee.split(".")[-1]
            if (leaf in _RECORD_ATTRS and "." in callee) or leaf.startswith(
                _RECORD_PREFIX
            ):
                counts = True
            if leaf in config.kernel_timer_calls:
                times = True
            if counts and times:
                break
        return counts, times

    def _check_kernel_telemetry(
        self, module: "ModuleInfo", config: "AnalysisConfig"
    ) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            for item in node.body:
                if not isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                if item.name not in config.kernel_methods:
                    continue
                counts, times = self._kernel_accounting(item, config)
                if not counts:
                    yield self.finding(
                        module,
                        item.lineno,
                        item.col_offset,
                        "engine kernel %s.%s records no telemetry counter — "
                        "every public kernel must count its calls so the "
                        "metrics registry stays the source of truth"
                        % (node.name, item.name),
                    )
                if not times:
                    yield self.finding(
                        module,
                        item.lineno,
                        item.col_offset,
                        "engine kernel %s.%s never times itself — every public "
                        "kernel must wrap its dispatch in telemetry.kernel_timer "
                        "so the hot-kernel report can rank kernels by wall-clock"
                        % (node.name, item.name),
                    )
