"""The zklint rule registry.

Each rule is a small class with a ``rule_id``, a one-line ``title`` and a
``check(module, config)`` generator yielding
:class:`~repro.analysis.findings.Finding` objects.  Rules are pure
functions of the parsed module — they never import or execute the code
under analysis — so the suite is safe to run on untrusted trees.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator

from repro.analysis.findings import Finding

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.analysis.config import AnalysisConfig
    from repro.analysis.engine import ModuleInfo


class Rule:
    """Base class: subclasses set ``rule_id``/``title`` and implement check."""

    rule_id: str = ""
    title: str = ""

    def check(self, module: "ModuleInfo", config: "AnalysisConfig") -> Iterator[Finding]:
        raise NotImplementedError

    def finding(
        self, module: "ModuleInfo", line: int, col: int, message: str
    ) -> Finding:
        """Build a finding anchored to ``module`` with a source snippet."""
        snippet = ""
        if 1 <= line <= len(module.lines):
            snippet = module.lines[line - 1].strip()
        return Finding(
            rule=self.rule_id,
            path=module.display,
            line=line,
            col=col,
            message=message,
            snippet=snippet,
        )


from repro.analysis.rules.determinism import Determinism  # noqa: E402
from repro.analysis.rules.field_hygiene import FieldHygiene  # noqa: E402
from repro.analysis.rules.kernel_routing import KernelRouting  # noqa: E402
from repro.analysis.rules.transcript import TranscriptDiscipline  # noqa: E402

#: Every shipped rule, in catalogue order.
ALL_RULES: tuple[Rule, ...] = (
    TranscriptDiscipline(),
    Determinism(),
    FieldHygiene(),
    KernelRouting(),
)

RULES_BY_ID: dict[str, Rule] = {rule.rule_id: rule for rule in ALL_RULES}

__all__ = [
    "ALL_RULES",
    "RULES_BY_ID",
    "Rule",
    "Determinism",
    "FieldHygiene",
    "KernelRouting",
    "TranscriptDiscipline",
]
