"""Pluggable compute backends for the arithmetic hot paths.

Every kernel the provers spend time in — NTTs, multi-scalar
multiplication over G1/G2, batched field inversion, fixed-base scalar
multiplication — is reached through an :class:`Engine`:

- :class:`SerialEngine` — single-process reference implementation;
- :class:`ParallelEngine` — splits fixed-table MSMs with forked helpers
  and shards generic MSMs, independent NTTs and inversion chains across
  ``multiprocessing`` workers, one process per CPU it may run on.

Both produce bit-identical outputs (enforced by property tests); they
differ only in execution strategy.  The process-wide default engine is
selected by the ``REPRO_BACKEND`` environment variable (``serial`` |
``parallel``, default ``serial``) and can be replaced programmatically::

    from repro.backend import ParallelEngine, use_engine

    with use_engine(ParallelEngine()):
        proof = prove(pk, assignment)       # all kernels run parallel

or per call site — every protocol entry point accepts ``engine=``.

See ``docs/backend_architecture.md`` for the interface contract, cache
lifetimes and how to add a new backend.
"""

from __future__ import annotations

import os
from contextlib import contextmanager

from repro.backend.engine import Engine
from repro.backend.parallel import ParallelEngine
from repro.backend.serial import SerialEngine
from repro.errors import BackendError

_BACKENDS = {
    "serial": SerialEngine,
    "parallel": ParallelEngine,
}

_default_engine: Engine | None = None


def engine_from_env() -> Engine:
    """Construct an engine from the ``REPRO_BACKEND`` environment variable."""
    kind = os.environ.get("REPRO_BACKEND", "serial").strip().lower() or "serial"
    cls = _BACKENDS.get(kind)
    if cls is None:
        raise BackendError(
            "unknown REPRO_BACKEND %r (available: %s)" % (kind, ", ".join(sorted(_BACKENDS)))
        )
    return cls()


def get_engine() -> Engine:
    """Return the process-wide default engine, creating it on first use.

    The default is shared so its caches (SRS Jacobian views, fixed-base
    tables, coset evaluations) amortise across every proof in the
    process.
    """
    global _default_engine
    if _default_engine is None:
        _default_engine = engine_from_env()
    return _default_engine


def set_engine(engine: Engine | None) -> Engine | None:
    """Replace the default engine; returns the previous one.

    Passing ``None`` resets to lazy re-selection from the environment.
    """
    global _default_engine
    previous = _default_engine
    _default_engine = engine
    return previous


@contextmanager
def use_engine(engine: Engine):
    """Scoped default-engine override (restores the previous default)."""
    previous = set_engine(engine)
    try:
        yield engine
    finally:
        set_engine(previous)


__all__ = [
    "Engine",
    "ParallelEngine",
    "SerialEngine",
    "engine_from_env",
    "get_engine",
    "set_engine",
    "use_engine",
]
