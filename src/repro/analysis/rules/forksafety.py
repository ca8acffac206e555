"""FORK-001: nothing hazardous may exist when a child process is forked.

``src/`` forks in one way, in two places: the prover pool forks its
workers and each worker's split engine forks its MSM helpers, as
``Process``es on pipes, precisely so the children inherit the warm
proving caches copy-on-write.  The flip side of that inheritance: a fork
child also inherits every started thread's locks (frozen mid-flight —
any later acquire deadlocks), a running event loop's selector fd (two
loops multiplexing one epoll set), and open sockets (two processes
reading one TCP stream).  CPython only replays atfork handlers for its
own internals; user state is on us.

The rule finds ``Process(...)`` construction sites (``fork_scopes``
modules only) and reports hazardous state that is *live at the fork*:

- a hazard call (``threading.Thread``, ``asyncio.get_running_loop``,
  ``socket.socket``, …) **earlier in the same function** whose CFG node
  dominates the fork site — i.e. it is live on every path to the fork
  (this covers the ``self.thread = Thread(...); self.proc =
  Process(...)`` constructor shape, since both live in ``__init__``);
- a fork while **holding a sync lock** (``with self._lock:`` around the
  construction) — the child inherits the lock in the locked state with
  no owner to release it.
"""

from __future__ import annotations

import ast
from typing import TYPE_CHECKING, Iterator, Optional

from repro.analysis.astutil import dotted_name, lexical_nodes
from repro.analysis.findings import Finding
from repro.analysis.flow import build_flow
from repro.analysis.rules import Rule

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.analysis.config import AnalysisConfig
    from repro.analysis.engine import ModuleInfo
    from repro.analysis.graph import Project


def _matches_prefix(dotted: str, prefixes: tuple[str, ...]) -> bool:
    return any(
        dotted == p or dotted.startswith(p + ".") or dotted.endswith("." + p)
        for p in prefixes
    )


def _is_fork_call(call: ast.Call, config: "AnalysisConfig") -> bool:
    """``get_context("fork").Process(...)`` / ``ctx.Process(...)`` shapes."""
    dotted = dotted_name(call.func)
    if dotted is None:
        # `multiprocessing.get_context("fork").Process()` has a Call in
        # the receiver chain, so dotted_name returns None; match the leaf.
        func = call.func
        return isinstance(func, ast.Attribute) and func.attr in config.fork_calls
    return dotted.rpartition(".")[2] in config.fork_calls


class ForkSafety(Rule):
    """FORK-001: no threads/loops/sockets/held locks across the fork."""

    rule_id = "FORK-001"
    title = "Hazardous state captured across the fork boundary"

    def check_with_project(
        self, module: "ModuleInfo", config: "AnalysisConfig", project: "Project"
    ) -> Iterator[Finding]:
        if not any(module.rel.startswith(s) for s in config.fork_scopes):
            return
        for func in module.functions:
            yield from self._check_function(module, config, func)

    def _check_function(
        self,
        module: "ModuleInfo",
        config: "AnalysisConfig",
        func: ast.FunctionDef | ast.AsyncFunctionDef,
    ) -> Iterator[Finding]:
        fork_sites = [
            node
            for node in lexical_nodes(func)
            if isinstance(node, ast.Call) and _is_fork_call(node, config)
        ]
        if not fork_sites:
            return
        graph = build_flow(func)
        hazards = list(self._hazard_calls(func, config))
        for fork in fork_sites:
            fork_stmt = self._enclosing_stmt(graph, fork)
            for hazard_call, hazard_label in hazards:
                if hazard_call.lineno >= fork.lineno:
                    continue
                hazard_stmt = self._enclosing_stmt(graph, hazard_call)
                dominated = True
                if fork_stmt is not None and hazard_stmt is not None:
                    dominated = graph.dominates(hazard_stmt, fork_stmt)
                if not dominated:
                    continue
                yield self.finding(
                    module,
                    fork.lineno,
                    fork.col_offset,
                    "process forked at line %d with %s live from line %d "
                    "— fork children inherit it in an undefined state"
                    % (fork.lineno, hazard_label, hazard_call.lineno),
                )
            # Fork under a held sync lock: the child inherits a locked
            # lock nobody will ever release.
            lock_line = self._held_lock_line(func, fork)
            if lock_line is not None:
                yield self.finding(
                    module,
                    fork.lineno,
                    fork.col_offset,
                    "process forked at line %d while holding the sync "
                    "lock acquired at line %d — the child inherits it "
                    "locked with no owner" % (fork.lineno, lock_line),
                )

    def _hazard_calls(
        self,
        func: ast.FunctionDef | ast.AsyncFunctionDef,
        config: "AnalysisConfig",
    ) -> Iterator[tuple[ast.Call, str]]:
        for node in lexical_nodes(func):
            if not isinstance(node, ast.Call):
                continue
            dotted = dotted_name(node.func)
            if dotted is None:
                continue
            if _matches_prefix(dotted, config.fork_hazard_calls):
                yield node, "'%s'" % dotted

    def _enclosing_stmt(
        self, graph: object, expr: ast.expr
    ) -> Optional[int]:
        """CFG node for the statement textually containing ``expr``.

        Matched by line containment over lowered statements; fine for the
        dominance query (both calls sit inside simple statements).
        """
        from repro.analysis.flow import FlowGraph

        assert isinstance(graph, FlowGraph)
        best: Optional[int] = None
        for node in graph.nodes:
            if node.stmt is None:
                continue
            end = getattr(node.stmt, "end_lineno", node.stmt.lineno) or node.stmt.lineno
            if node.stmt.lineno <= expr.lineno <= end:
                # Prefer the innermost (latest-starting) match.
                if best is None or node.stmt.lineno >= graph.nodes[best].stmt.lineno:  # type: ignore[union-attr]
                    best = node.index
        return best

    def _held_lock_line(
        self, func: ast.FunctionDef | ast.AsyncFunctionDef, fork: ast.Call
    ) -> Optional[int]:
        for node in lexical_nodes(func):
            if not isinstance(node, ast.With):
                continue
            end = getattr(node, "end_lineno", node.lineno) or node.lineno
            if not (node.lineno <= fork.lineno <= end):
                continue
            for item in node.items:
                dotted = dotted_name(item.context_expr)
                if dotted is None:
                    continue
                tokens = set(dotted.lower().replace(".", "_").split("_"))
                if tokens & {"lock", "mutex"}:
                    return node.lineno
        return None
