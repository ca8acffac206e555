"""ASYNC-001: event-loop liveness for the service plane.

The marketplace node's liveness argument (one admission loop drives
every session; see ``docs/service_plane.md``) holds only if no
coroutine ever blocks the loop's thread.  A single ``time.sleep`` or
``Process.join`` inside ``async def`` stalls *every* in-flight exchange —
the chaos suite samples this class of bug; this rule proves its
absence in the service scope.

Directly-blocking callees (``time.sleep``, sync subprocess / socket I/O)
match by dotted prefix; method calls like ``pool.apply`` or
``lock.acquire`` match by (leaf, receiver-token) pairs so that
``dict.get`` homonyms stay quiet.  Awaited calls are exempt (awaiting
``loop.run_in_executor(None, pool.close)`` is the *fix*, not a
finding).  With a project graph the rule also follows one level of call
edges: a sync helper defined in the tree that blocks is reported at the
coroutine's call site.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator, Optional

from repro.analysis.findings import Finding
from repro.analysis.rules import Rule

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.analysis.config import AnalysisConfig
    from repro.analysis.engine import ModuleInfo
    from repro.analysis.graph import FunctionNode, Project


def _identifier_tokens(name: str) -> set[str]:
    """Snake-case tokens of the last two dotted components, lowered."""
    parts = name.lower().replace(".", "_").split("_")
    return {p for p in parts if p}


def _receiver_of(dotted: str) -> str:
    """Everything before the final attribute (``self._pool.apply`` →
    ``self._pool``); empty for plain names."""
    head, _, _leaf = dotted.rpartition(".")
    return head


def _blocking_reason(dotted: str, config: "AnalysisConfig") -> Optional[str]:
    """Why a dotted callee blocks, or None when it does not."""
    for prefix in config.blocking_call_prefixes:
        if dotted == prefix or dotted.startswith(prefix + ".") or (
            prefix.endswith(".") and dotted.startswith(prefix)
        ):
            return "'%s' blocks the calling thread" % dotted
    receiver = _receiver_of(dotted)
    if not receiver:
        return None
    leaf = dotted.rpartition(".")[2]
    tokens = _identifier_tokens(receiver)
    for want_leaf, want_token in config.blocking_leaf_receivers:
        if leaf == want_leaf and want_token in tokens:
            return "'%s' blocks (sync %s.%s)" % (dotted, want_token, want_leaf)
    return None


def _in_scope(module: "ModuleInfo", scopes: tuple[str, ...]) -> bool:
    return any(module.rel.startswith(scope) for scope in scopes)


class AsyncBlocking(Rule):
    """ASYNC-001: no blocking calls inside ``async def`` in service code."""

    rule_id = "ASYNC-001"
    title = "Blocking call inside a coroutine stalls the event loop"

    def check_with_project(
        self, module: "ModuleInfo", config: "AnalysisConfig", project: "Project"
    ) -> Iterator[Finding]:
        if not _in_scope(module, config.async_scopes):
            return
        graph_module = project.modules_by_rel.get(module.rel)
        if graph_module is None:
            return
        for qname in set(graph_module.functions.values()):
            func = project.functions[qname]
            if not func.is_async or func.module is not graph_module:
                continue
            yield from self._check_coroutine(module, config, project, func)

    def _check_coroutine(
        self,
        module: "ModuleInfo",
        config: "AnalysisConfig",
        project: "Project",
        func: "FunctionNode",
    ) -> Iterator[Finding]:
        for site in func.calls:
            if site.awaited or site.dotted is None:
                continue
            reason = _blocking_reason(site.dotted, config)
            if reason is not None:
                yield self.finding(
                    module,
                    site.node.lineno,
                    site.node.col_offset,
                    "%s inside 'async def %s'" % (reason, func.name),
                )
                continue
            # One level of interprocedural propagation: a sync project
            # helper that itself blocks is reported here, at the point
            # the coroutine loses the loop.
            if site.target is None:
                continue
            callee = project.functions.get(site.target)
            if callee is None or callee.is_async:
                continue
            for inner in callee.calls:
                if inner.dotted is None:
                    continue
                inner_reason = _blocking_reason(inner.dotted, config)
                if inner_reason is not None:
                    yield self.finding(
                        module,
                        site.node.lineno,
                        site.node.col_offset,
                        "sync helper '%s' called from 'async def %s' blocks: %s"
                        % (callee.name, func.name, inner_reason),
                    )
                    break
