"""Spans: nested wall-clock regions with structured attributes.

A span is a named ``with`` region; entering pushes it onto a
``contextvars`` stack so children attach to the innermost open span no
matter which thread or task runs them.  The stack is per process: the
engine's forked MSM helpers never push spans, so their work shows as
the wall-clock of the caller's kernel span.

When a **root** span (one with no open parent) closes, the finished tree
is handed to every registered exporter and kept in a bounded in-memory
ring so tests and the benchmark harness can inspect it without I/O.
A tree reaches disk only inside a run-ledger record
(:func:`span_records`); :func:`format_span_tree` renders one for a reader.
"""

from __future__ import annotations

import contextvars
import time
from collections import deque
from typing import Any, Callable, Iterator, Optional

_current_span: "contextvars.ContextVar[Optional[Span]]" = contextvars.ContextVar(
    "repro_telemetry_span", default=None
)

#: Finished *root* spans, newest last.  Bounded so a long-running process
#: with tracing left on cannot grow without limit.
_finished_roots: "deque[Span]" = deque(maxlen=256)

#: Callables invoked with each finished root span.
_exporters: "list[Callable[[Span], Any]]" = []


class Span:
    """One timed region.  Use via ``with span("name", attr=...) as sp:``."""

    __slots__ = ("name", "attrs", "start", "end", "children", "parent", "_token")

    def __init__(self, name: str, attrs: dict | None = None) -> None:
        self.name = name
        self.attrs: dict = dict(attrs) if attrs else {}
        self.start: float | None = None
        self.end: float | None = None
        self.children: list[Span] = []
        self.parent: Span | None = None
        self._token: contextvars.Token | None = None

    # ----- attributes -----------------------------------------------------

    def set_attr(self, key: str, value: Any) -> "Span":
        self.attrs[key] = value
        return self

    def set_attrs(self, mapping: dict | None = None, **attrs: Any) -> "Span":
        if mapping:
            self.attrs.update(mapping)
        if attrs:
            self.attrs.update(attrs)
        return self

    # ----- lifecycle ------------------------------------------------------

    @property
    def duration(self) -> float:
        """Seconds between enter and exit (0.0 while still open)."""
        if self.start is None or self.end is None:
            return 0.0
        return self.end - self.start

    def __enter__(self) -> "Span":
        self.parent = _current_span.get()
        self._token = _current_span.set(self)
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> bool:
        self.end = time.perf_counter()
        if exc_type is not None:
            self.attrs.setdefault("error", "%s: %s" % (exc_type.__name__, exc))
        if self._token is not None:
            _current_span.reset(self._token)
        if self.parent is not None:
            self.parent.children.append(self)
        else:
            _finish_root(self)
        return False

    # ----- introspection --------------------------------------------------

    def walk(self) -> Iterator["Span"]:
        """Yield this span and every descendant, depth-first, pre-order."""
        yield self
        for child in self.children:
            yield from child.walk()

    def find(self, name: str) -> "Span | None":
        """First span named ``name`` in this subtree (depth-first)."""
        for node in self.walk():
            if node.name == name:
                return node
        return None

    def __repr__(self) -> str:
        return "<Span %s %.3fms children=%d>" % (
            self.name,
            self.duration * 1e3,
            len(self.children),
        )


class NoopSpan:
    """Shared do-nothing span returned when telemetry is off.

    Stateless, so one instance can be re-entered concurrently; every
    mutator is a no-op and returns ``self`` for chaining.
    """

    __slots__ = ()

    name = "noop"
    attrs: dict = {}
    children: list = []
    duration = 0.0

    def set_attr(self, key: str, value: Any) -> "NoopSpan":
        return self

    def set_attrs(self, mapping: dict | None = None, **attrs: Any) -> "NoopSpan":
        return self

    def __enter__(self) -> "NoopSpan":
        return self

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> bool:
        return False


NOOP_SPAN = NoopSpan()


def current_span() -> "Span | None":
    """The innermost open span, or ``None`` outside any traced region."""
    return _current_span.get()


def _finish_root(span: Span) -> None:
    _finished_roots.append(span)
    for exporter in list(_exporters):
        exporter(span)


def finished_roots() -> "list[Span]":
    """Completed root spans, oldest first (bounded ring)."""
    return list(_finished_roots)


def clear_finished() -> None:
    _finished_roots.clear()


def add_exporter(exporter: "Callable[[Span], Any]") -> None:
    """Register ``exporter(root_span)`` to run on every finished root."""
    _exporters.append(exporter)


def remove_exporter(exporter: "Callable[[Span], Any]") -> None:
    try:
        _exporters.remove(exporter)
    except ValueError:
        pass


def _format_attr(value: Any) -> str:
    if isinstance(value, float):
        return "%.6g" % value
    return str(value)


def format_span_tree(span: Span, indent: str = "") -> str:
    """Render one span subtree as indented text with millisecond timings."""
    attrs = ""
    if span.attrs:
        attrs = "  [%s]" % ", ".join(
            "%s=%s" % (k, _format_attr(v)) for k, v in span.attrs.items()
        )
    lines = ["%s%s  %.1f ms%s" % (indent, span.name, span.duration * 1e3, attrs)]
    for child in span.children:
        lines.append(format_span_tree(child, indent + "  "))
    return "\n".join(lines)


def span_records(root: Span) -> list[dict]:
    """Flatten a span tree to records with ``id``/``parent`` links.

    Ids are depth-first pre-order positions within this tree (the root is
    0), so records are self-contained per tree and stable across runs.
    ``root`` may itself be an interior span of a larger trace (e.g. an
    ``exchange.run`` nested under ``marketplace.sell``); parents outside
    the exported subtree serialise as ``None``.
    """
    ids: dict[int, int] = {}
    records: list[dict] = []
    for i, node in enumerate(root.walk()):
        ids[id(node)] = i
        records.append(
            {
                "id": i,
                "parent": ids.get(id(node.parent)) if node.parent is not None else None,
                "name": node.name,
                "start": node.start,
                "duration": node.duration,
                "attrs": dict(node.attrs),
            }
        )
    return records
