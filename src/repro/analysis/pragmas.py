"""Per-line ``# zklint: disable=RULE`` pragma parsing.

A pragma suppresses findings *on its own line only* — the narrowest
possible scope, so a suppression cannot silently swallow a future
violation three lines away.  Several rules may be listed separated by
commas, and ``all`` disables every rule on the line::

    beta = transcript.challenge(b"beta")  # zklint: disable=FS-001
    x = weird()  # zklint: disable=FS-001,FLD-001
    y = hack()   # zklint: disable=all

Suppressions are extracted lexically (not via the AST) so they work on
lines that are part of larger multi-line statements.
"""

from __future__ import annotations

import re

_PRAGMA_RE = re.compile(r"#\s*zklint:\s*disable=([A-Za-z0-9_,\s\-]+)")

#: Sentinel rule name matching every rule.
ALL = "ALL"


def line_suppressions(source: str) -> dict[int, set[str]]:
    """Map 1-based line numbers to the set of rule ids disabled there."""
    out: dict[int, set[str]] = {}
    for lineno, line in enumerate(source.splitlines(), start=1):
        match = _PRAGMA_RE.search(line)
        if match is None:
            continue
        rules = {part.strip().upper() for part in match.group(1).split(",")}
        rules.discard("")
        if rules:
            out[lineno] = rules
    return out


def is_suppressed(rule: str, line: int, suppressions: dict[int, set[str]]) -> bool:
    """True when ``rule`` is pragma-disabled on ``line``."""
    active = suppressions.get(line)
    if not active:
        return False
    return rule.upper() in active or ALL in active
