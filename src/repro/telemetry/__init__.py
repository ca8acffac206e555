"""Structured observability for the whole stack — spans, metrics, the run ledger.

Zero-dependency and **off by default**: ``REPRO_TELEMETRY`` is ``off``
or ``on``,

- ``off`` — every instrumentation point is a module-level no-op fast
  path (one global load and compare; budgeted at <2% of proof
  wall-clock, see ``benchmarks/bench_telemetry_overhead.py``);
- ``on``  — counters and histograms record kernel calls, sizes,
  durations and cache hit/miss outcomes, and nested wall-clock spans
  record prover rounds, Groth16 phases and exchange protocol steps.

A process started with ``REPRO_LEDGER`` set runs ``on``, so its run
ledger records carry their metric deltas and span trees;
``REPRO_TELEMETRY=off`` beside a ledger path is refused at import.

Everything is recorded in the calling process: the engine's forked MSM
helpers record nothing, their time is the caller's kernel time.

Typical use::

    from repro import telemetry

    with telemetry.use_level("on"):
        proof = prove(pk, assignment)
    tree = telemetry.finished_roots()[-1]     # the plonk.prove span tree
    stats = telemetry.snapshot()              # counters + histograms

The one file telemetry writes is the run ledger (``REPRO_LEDGER=<path>``,
:mod:`repro.telemetry.ledger`); ``python -m repro.telemetry`` reads it.
In-process consumers register with :func:`add_exporter`.  See
``docs/observability.md``.
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager
from typing import Any, Iterator, Mapping, Union

from repro.telemetry.metrics import (
    LATENCY_BUCKETS,
    SIZE_BUCKETS,
    Counter,
    Histogram,
    Registry,
    quantile_from_bucket_dict,
    quantile_from_buckets,
)
from repro.telemetry.spans import (
    NOOP_SPAN,
    NoopSpan,
    Span,
    add_exporter,
    clear_finished,
    current_span,
    finished_roots,
    format_span_tree,
    remove_exporter,
    span_records,
)

#: Whether telemetry records.  A module-level bool so the disabled fast
#: path is one global load and compare — cheap enough for the hottest
#: kernels.
_on = False

_registry = Registry()


def _parse_level(value: str) -> bool:
    name = str(value).strip().lower()
    if name not in ("off", "on"):
        raise ValueError("unknown telemetry level %r (expected off or on)" % (value,))
    return name == "on"


def enabled() -> bool:
    """Whether counters, histograms and spans record."""
    return _on


def set_level(value: str) -> str:
    """Switch telemetry ``"off"`` or ``"on"``; returns the previous setting."""
    global _on
    previous = "on" if _on else "off"
    _on = _parse_level(value)
    return previous


@contextmanager
def use_level(value: str) -> Iterator[None]:
    """Scoped switch (restores the previous setting on exit)."""
    previous = set_level(value)
    try:
        yield
    finally:
        set_level(previous)


# ----- instruments --------------------------------------------------------


def registry() -> Registry:
    """The process-wide metrics registry."""
    return _registry


def counter(name: str, **labels: object) -> Counter:
    """Fetch (creating on first use) a counter from the global registry."""
    return _registry.counter(name, **labels)


def histogram(name: str, bounds: tuple = SIZE_BUCKETS, **labels: object) -> Histogram:
    """Fetch (creating on first use) a histogram from the global registry."""
    return _registry.histogram(name, bounds, **labels)


def snapshot() -> dict:
    """JSON-ready view of every counter and histogram."""
    return _registry.snapshot()


def reset_metrics() -> None:
    _registry.reset()


def span(name: str, **attrs: Any) -> Union[Span, NoopSpan]:
    """A traced region: a real :class:`Span` when on, the no-op otherwise.

    The returned object supports ``with``, :meth:`~Span.set_attr` and
    :meth:`~Span.set_attrs` in both modes, so call sites never branch.
    """
    if not _on:
        return NOOP_SPAN
    return Span(name, attrs)


class _KernelTimer:
    """``with``-scoped duration observation into a latency histogram."""

    __slots__ = ("_hist", "_start")

    def __init__(self, hist: Histogram) -> None:
        self._hist = hist
        self._start = 0.0

    def __enter__(self) -> "_KernelTimer":
        self._start = time.perf_counter()
        return self

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> bool:
        self._hist.observe(time.perf_counter() - self._start)
        return False


def kernel_timer(kernel: str, **labels: object) -> Union[_KernelTimer, NoopSpan]:
    """Time one kernel invocation into ``engine.kernel.seconds{kernel=...}``.

    The duration half of the count-and-time contract
    (``tests/test_telemetry.py::TestKernelAccounting``): every public engine
    kernel wrapper both *counts* its call (counter/histogram) and
    *times* it through this context manager, so the hot-kernel table in
    ``python -m repro.telemetry report`` can rank kernels by wall-clock
    and quantiles, not just call counts.  Returns the shared no-op span
    when off, so the disabled path stays one compare.
    """
    if not _on:
        return NOOP_SPAN
    return _KernelTimer(
        _registry.histogram("engine.kernel.seconds", LATENCY_BUCKETS, kernel=kernel, **labels)
    )


# ----- environment wiring -------------------------------------------------


def configure_from_env(environ: "Mapping[str, str] | None" = None) -> None:
    """Apply ``REPRO_TELEMETRY``; a set ``REPRO_LEDGER`` switches telemetry on.

    Unset or empty ``REPRO_TELEMETRY`` without a ledger changes nothing.
    ``REPRO_TELEMETRY=off`` with a ledger path raises ``ValueError``: its
    records would carry no spans and no metrics.  Called once at import;
    safe to call again after mutating ``os.environ`` in tests.
    """
    env = os.environ if environ is None else environ
    raw = env.get("REPRO_TELEMETRY", "").strip()
    if env.get("REPRO_LEDGER", "").strip():
        if raw and not _parse_level(raw):
            raise ValueError(
                "REPRO_TELEMETRY=off with REPRO_LEDGER set: a ledger record "
                "needs telemetry on (unset REPRO_TELEMETRY or set it to on)"
            )
        raw = "on"
    if raw:
        set_level(raw)


configure_from_env()

__all__ = [
    "Counter",
    "Histogram",
    "Registry",
    "Span",
    "NOOP_SPAN",
    "LATENCY_BUCKETS",
    "SIZE_BUCKETS",
    "add_exporter",
    "clear_finished",
    "configure_from_env",
    "counter",
    "current_span",
    "enabled",
    "finished_roots",
    "format_span_tree",
    "histogram",
    "kernel_timer",
    "quantile_from_bucket_dict",
    "quantile_from_buckets",
    "registry",
    "remove_exporter",
    "reset_metrics",
    "set_level",
    "snapshot",
    "span",
    "span_records",
    "use_level",
]
