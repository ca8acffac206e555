"""RES-001: every acquired process/pipe/ledger is released on all paths.

The prover pool's workers and the split engine's helpers rest on one
ownership protocol: whoever forks a ``Process`` (or opens a ``Pipe``)
and keeps it in a local must reach its terminate/join/close
on *every* path out of the function — normal return, early return, and
any exception raised between acquire and release — or the child
outlives its owner.  The same discipline applies to ledger leases.
The chaos suite samples these paths; this rule proves them, using the
CFG from :mod:`repro.analysis.flow`:

1. find acquire calls (config's ``resource_acquires`` map) whose result
   binds to a plain local name;
2. skip bindings that **escape** — stored to ``self``/a container,
   returned, yielded, or passed to a call other than a release — since
   ownership transferred and release happens elsewhere (the helpers
   ``SplitEngine._fork_helpers`` appends to ``_links`` for ``close()``
   to reap, and the workers ``ProverPool._fork`` stores for ``close()``
   to join, are exactly this);
3. find release calls on that name (``release_ledger(lease)``,
   ``proc.join()``) and ``with``-statements using the binding as a
   context manager;
4. report when :meth:`FlowGraph.any_path_avoids` finds a path from the
   acquire's *normal successors* to EXIT that touches no release node.
   Starting from the successors matters: an exception raised by the
   acquire itself means nothing was acquired.

The CFG overapproximates paths, so the rule can flag a leak a branch
condition actually prevents — wrapping the release in
``try``/``finally`` is both the fix and the proof.
"""

from __future__ import annotations

import ast
from typing import TYPE_CHECKING, Iterator, Optional

from repro.analysis.astutil import dotted_name, lexical_nodes
from repro.analysis.findings import Finding
from repro.analysis.flow import FlowGraph, build_flow
from repro.analysis.rules import Rule

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.analysis.config import AnalysisConfig
    from repro.analysis.engine import ModuleInfo
    from repro.analysis.graph import Project


def _acquire_release_map(config: "AnalysisConfig") -> dict[str, tuple[str, ...]]:
    return dict(config.resource_acquires)


def _call_suffix(dotted: str) -> str:
    """Last dotted component (``ctx.Process`` → ``Process``)."""
    return dotted.rpartition(".")[2]


def _mentions_object(expr: ast.AST, name: str) -> bool:
    """Does the *object itself* (not a derived attribute read) flow out?

    ``proc`` in a tuple escapes; ``proc.pid`` / ``proc.name`` are
    derived values — whoever is given them cannot reap the process,
    release ownership stays here.
    """
    stack = [expr]
    while stack:
        node = stack.pop()
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == name
        ):
            continue  # attribute read: derived value only
        if isinstance(node, ast.Name) and node.id == name:
            return True
        stack.extend(ast.iter_child_nodes(node))
    return False


class _Acquire:
    """One ``name = acquire(...)`` binding inside a function."""

    def __init__(self, stmt: ast.stmt, call: ast.Call, name: str, releases: tuple[str, ...]):
        self.stmt = stmt
        self.call = call
        self.name = name
        self.releases = releases


class ResourceRelease(Rule):
    """RES-001: acquires must reach a release on every CFG path."""

    rule_id = "RES-001"
    title = "Acquired resource not released on all paths"

    def check_with_project(
        self, module: "ModuleInfo", config: "AnalysisConfig", project: "Project"
    ) -> Iterator[Finding]:
        if not any(module.rel.startswith(s) for s in config.resource_scopes):
            return
        acquire_map = _acquire_release_map(config)
        for func in module.functions:
            yield from self._check_function(module, func, acquire_map)

    # ----- per-function analysis ------------------------------------------

    def _check_function(
        self,
        module: "ModuleInfo",
        func: ast.FunctionDef | ast.AsyncFunctionDef,
        acquire_map: dict[str, tuple[str, ...]],
    ) -> Iterator[Finding]:
        acquires = list(self._find_acquires(func, acquire_map))
        if not acquires:
            return
        graph: Optional[FlowGraph] = None
        for acq in acquires:
            if self._escapes(func, acq):
                continue
            if graph is None:
                graph = build_flow(func)
            start = graph.node_for(acq.stmt)
            if start is None:
                continue
            release_nodes = self._release_nodes(func, graph, acq)
            if self._leaks(graph, start, release_nodes):
                yield self.finding(
                    module,
                    acq.call.lineno,
                    acq.call.col_offset,
                    "'%s' acquired by %s() at line %d is not released on "
                    "all paths (expected %s on every exit, including "
                    "exceptional ones — use try/finally or a context manager)"
                    % (
                        acq.name,
                        _call_suffix(dotted_name(acq.call.func) or "?"),
                        acq.call.lineno,
                        " or ".join(sorted(set(acq.releases))),
                    ),
                )

    def _find_acquires(
        self,
        func: ast.FunctionDef | ast.AsyncFunctionDef,
        acquire_map: dict[str, tuple[str, ...]],
    ) -> Iterator[_Acquire]:
        for stmt in lexical_nodes(func):
            if not isinstance(stmt, ast.Assign):
                continue
            value = stmt.value
            if not isinstance(value, ast.Call):
                continue
            dotted = dotted_name(value.func)
            if dotted is None:
                continue
            releases = acquire_map.get(_call_suffix(dotted))
            if releases is None:
                continue
            # Only plain-name bindings are tracked; attribute/subscript
            # and tuple targets transfer ownership out of the function
            # (an escape by definition).
            if len(stmt.targets) == 1 and isinstance(stmt.targets[0], ast.Name):
                yield _Acquire(stmt, value, stmt.targets[0].id, releases)

    def _escapes(
        self, func: ast.FunctionDef | ast.AsyncFunctionDef, acq: _Acquire
    ) -> bool:
        """Did ownership of ``acq.name`` leave this function?

        Escapes: re-assignment into an attribute/subscript, ``return``,
        ``yield``, or being passed as an argument to any call that is
        not one of the acquire's release leaves.  (``with seg:`` and
        ``release(seg)`` are the non-escaping uses.)
        """
        name = acq.name
        release_leaves = set(acq.releases)
        for node in lexical_nodes(func):
            if isinstance(node, ast.Assign):
                # `self.segs[k] = seg` / `self.seg = seg` / `x = (o, seg)`
                # stored into an attribute/subscript: ownership moved to
                # the container's owner.
                if any(
                    isinstance(t, (ast.Attribute, ast.Subscript)) for t in node.targets
                ) and _mentions_object(node.value, name):
                    return True
            elif isinstance(node, (ast.Return, ast.Yield, ast.YieldFrom)):
                if node.value is not None and _mentions_object(node.value, name):
                    return True
            elif isinstance(node, ast.Call):
                callee = dotted_name(node.func)
                leaf = _call_suffix(callee) if callee is not None else None
                if leaf in release_leaves:
                    continue
                # Method call *on* the binding is a use, not an escape.
                if callee is not None and callee.startswith(name + "."):
                    continue
                for arg in list(node.args) + [kw.value for kw in node.keywords]:
                    if _mentions_object(arg, name):
                        return True
        return False

    def _release_nodes(
        self,
        func: ast.FunctionDef | ast.AsyncFunctionDef,
        graph: FlowGraph,
        acq: _Acquire,
    ) -> set[int]:
        """CFG nodes whose statements release ``acq.name``."""
        release_leaves = set(acq.releases)
        out: set[int] = set()
        for stmt in lexical_nodes(func):
            if not isinstance(stmt, ast.stmt):
                continue
            index = graph.node_for(stmt)
            if index is None:
                continue
            if isinstance(stmt, (ast.With, ast.AsyncWith)):
                # `with seg:` / `with closing(seg):` guarantees __exit__.
                for item in stmt.items:
                    if any(
                        isinstance(n, ast.Name) and n.id == acq.name
                        for n in ast.walk(item.context_expr)
                    ):
                        out.add(index)
                continue
            for call in (n for n in ast.walk(stmt) if isinstance(n, ast.Call)):
                callee = dotted_name(call.func)
                if callee is None:
                    continue
                leaf = _call_suffix(callee)
                if leaf not in release_leaves:
                    continue
                # Either `release(seg)` or `seg.release()`.
                receiver_match = callee == "%s.%s" % (acq.name, leaf)
                arg_match = any(
                    isinstance(a, ast.Name) and a.id == acq.name for a in call.args
                )
                if receiver_match or arg_match:
                    out.add(index)
                    break
        return out

    def _leaks(self, graph: FlowGraph, start: int, release_nodes: set[int]) -> bool:
        if not release_nodes:
            return True
        # Ask from each *normal* successor of the acquire statement: the
        # exception edge out of the acquire itself means nothing was
        # acquired, so that path is excluded.  Release nodes are
        # absorbing inside any_path_avoids.
        for succ in graph.normal_succs(start):
            if succ in release_nodes:
                continue
            if succ == graph.exit:
                return True
            if graph.any_path_avoids(succ, release_nodes):
                return True
        return False
