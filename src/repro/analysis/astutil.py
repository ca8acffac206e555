"""Small AST helpers shared by the zklint rules (stdlib ``ast`` only)."""

from __future__ import annotations

import ast
from typing import Iterator

#: Node types that open a new scope — lexical traversals stop here so a
#: rule analysing one function never sees a nested function's body.
SCOPE_NODES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)


def dotted_name(node: ast.AST) -> str | None:
    """Render ``a.b.c`` attribute/name chains; None for anything else."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = dotted_name(node.value)
        if base is None:
            return None
        return base + "." + node.attr
    return None


def lexical_calls(node: ast.AST) -> Iterator[ast.Call]:
    """Call nodes under ``node`` in source order, not crossing scopes."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, SCOPE_NODES):
            continue
        if isinstance(child, ast.Call):
            yield child
        yield from lexical_calls(child)


def lexical_nodes(node: ast.AST) -> Iterator[ast.AST]:
    """All nodes under ``node`` in source order, not crossing scopes."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, SCOPE_NODES):
            continue
        yield child
        yield from lexical_nodes(child)


def call_label(call: ast.Call) -> str:
    """A human-readable label for a call's first constant argument."""
    if call.args and isinstance(call.args[0], ast.Constant):
        return repr(call.args[0].value)
    return "<dynamic>"


def assigned_names(target: ast.AST) -> Iterator[str]:
    """Plain names bound by an assignment target (tuples unpacked)."""
    if isinstance(target, ast.Name):
        yield target.id
    elif isinstance(target, (ast.Tuple, ast.List)):
        for element in target.elts:
            yield from assigned_names(element)
    elif isinstance(target, ast.Starred):
        yield from assigned_names(target.value)
