"""Pluggable compute backends for the arithmetic hot paths.

Every kernel the provers spend time in — NTTs, multi-scalar
multiplication over G1/G2, batched field inversion, fixed-base scalar
multiplication — is reached through an :class:`Engine`:

- :class:`SerialEngine` — single-process reference implementation and
  the process-wide default;
- :class:`SplitEngine` — the serial engine whose fixed-table G1 MSMs
  (every commitment of a warm Plonk proof) are shared with forked
  helpers on other cores.

Both produce bit-identical outputs (enforced by property tests); they
differ only in execution strategy.  There is nothing to set: the default
engine is always serial, :class:`~repro.service.pool.ProverPool` builds
its own :class:`SplitEngine` from the CPU mask, and anything else
replaces the default programmatically::

    from repro.backend import SplitEngine, use_engine

    with use_engine(SplitEngine(helpers=1)):
        proof = prove(pk, assignment)       # table MSMs on two cores

or per call site — every protocol entry point accepts ``engine=``.

See ``docs/backend_architecture.md`` for the interface contract, cache
lifetimes and how to add a new backend.
"""

from __future__ import annotations

from contextlib import contextmanager

from repro.backend.engine import Engine
from repro.backend.serial import SerialEngine
from repro.backend.split import SplitEngine

_default_engine: Engine | None = None


def get_engine() -> Engine:
    """Return the process-wide default engine, creating it on first use.

    The default is shared so its caches (SRS Jacobian views, fixed-base
    tables, coset evaluations) amortise across every proof in the
    process.
    """
    global _default_engine
    if _default_engine is None:
        _default_engine = SerialEngine()
    return _default_engine


def set_engine(engine: Engine | None) -> Engine | None:
    """Replace the default engine; returns the previous one.

    Passing ``None`` resets to a lazily created :class:`SerialEngine`.
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
    "SerialEngine",
    "SplitEngine",
    "get_engine",
    "set_engine",
    "use_engine",
]
