"""Structured observability for the whole stack — spans, metrics, the run ledger.

Zero-dependency and **off by default**: the ``REPRO_TELEMETRY``
environment variable selects one of three levels,

- ``off``     — every instrumentation point is a module-level no-op
  fast path (a single integer comparison; budgeted at <2% of proof
  wall-clock, see ``benchmarks/bench_telemetry_overhead.py``);
- ``metrics`` — counters and histograms record kernel calls, sizes,
  durations and cache hit/miss outcomes, but no spans are created;
- ``trace``   — metrics plus nested wall-clock spans (prover rounds,
  Groth16 phases, exchange protocol steps).

Everything is recorded in the calling process: the engine's forked MSM
helpers record nothing, their time is the caller's kernel time.

Typical use::

    from repro import telemetry

    with telemetry.use_level("trace"):
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

#: Telemetry levels, ordered.  ``metrics`` implies counters/histograms;
#: ``trace`` additionally creates spans.
OFF, METRICS, TRACE = 0, 1, 2

_LEVEL_NAMES = {"off": OFF, "metrics": METRICS, "trace": TRACE}

#: The active level.  Module-level integer so the disabled fast path is
#: one global load and compare — cheap enough for the hottest kernels.
_level = OFF

_registry = Registry()


def _parse_level(value: Union[int, str]) -> int:
    if isinstance(value, int):
        if value not in (OFF, METRICS, TRACE):
            raise ValueError("telemetry level must be 0, 1 or 2, got %r" % value)
        return value
    name = str(value).strip().lower()
    if name in _LEVEL_NAMES:
        return _LEVEL_NAMES[name]
    if name.isdigit() and int(name) in (OFF, METRICS, TRACE):
        return int(name)
    raise ValueError(
        "unknown telemetry level %r (expected off, metrics or trace)" % (value,)
    )


def level() -> int:
    """The active level as an integer (OFF / METRICS / TRACE)."""
    return _level


def level_name() -> str:
    return {OFF: "off", METRICS: "metrics", TRACE: "trace"}[_level]


def set_level(value: Union[int, str]) -> int:
    """Set the active level ('off' ... 'trace' or 0-2); returns the previous."""
    global _level
    previous = _level
    _level = _parse_level(value)
    return previous


@contextmanager
def use_level(value: Union[int, str]) -> Iterator[None]:
    """Scoped level override (restores the previous level on exit)."""
    previous = set_level(value)
    try:
        yield
    finally:
        set_level(previous)


def metrics_enabled() -> bool:
    return _level >= METRICS


def trace_enabled() -> bool:
    return _level >= TRACE


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
    """A traced region: real :class:`Span` at trace level, no-op otherwise.

    The returned object supports ``with``, :meth:`~Span.set_attr` and
    :meth:`~Span.set_attrs` in both modes, so call sites never branch.
    """
    if _level < TRACE:
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
    below metrics level, so the disabled path stays one compare.
    """
    if _level < METRICS:
        return NOOP_SPAN
    return _KernelTimer(
        _registry.histogram("engine.kernel.seconds", LATENCY_BUCKETS, kernel=kernel, **labels)
    )


# ----- environment wiring -------------------------------------------------


def configure_from_env(environ: "Mapping[str, str] | None" = None) -> None:
    """Apply the ``REPRO_TELEMETRY`` level; unset or empty changes nothing.

    Called once at import; safe to call again after mutating ``os.environ``
    in tests.
    """
    env = os.environ if environ is None else environ
    raw = env.get("REPRO_TELEMETRY", "").strip()
    if raw:
        set_level(raw)


configure_from_env()

__all__ = [
    "OFF",
    "METRICS",
    "TRACE",
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
    "finished_roots",
    "format_span_tree",
    "histogram",
    "kernel_timer",
    "level",
    "level_name",
    "metrics_enabled",
    "quantile_from_bucket_dict",
    "quantile_from_buckets",
    "registry",
    "remove_exporter",
    "reset_metrics",
    "set_level",
    "snapshot",
    "span",
    "span_records",
    "trace_enabled",
    "use_level",
]
