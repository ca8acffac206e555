"""The compute engine behind every arithmetic hot path.

Every kernel the provers and verifiers spend time in — NTTs,
multi-scalar multiplication over G1/G2, batched field inversion,
fixed-base scalar multiplication, pairings — is reached through the
process's one :class:`Engine`, which also holds the caches that
amortise work across proofs (SRS Jacobian views, MSM window tables,
coset evaluations, prepared G2 points).  Protocol code takes no engine
argument: it calls :func:`get_engine`.

The engine has ``helpers``: forked processes that share its fixed-table
G1 MSMs (every commitment of a warm Plonk proof), each building and
holding its own rows of the window tables, with bit-identical results.
There is nothing to set: :func:`get_engine` gives the process's engine
one helper per spare core of the CPU mask (none on one CPU).  A host
runs one set of them: :class:`~repro.service.pool.ProverPool` hands the
engine's helpers to its one worker rather than let it fork its own
(:meth:`Engine.hand_over`, :meth:`Engine.adopt`).  A scope that wants
another engine installs one::

    from repro.backend import Engine, use_engine

    with use_engine(Engine()):
        proof = prove(pk, assignment)       # every kernel in this process

See ``docs/backend_architecture.md`` for the interface contract, cache
lifetimes and the helpers' lifecycle.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Iterator

from repro.backend.engine import Engine

_engine: Engine | None = None


def get_engine() -> Engine:
    """Return the process's engine, creating it on first use with one
    helper per core of the CPU mask besides the one it runs on.

    It is shared so its caches amortise across every proof in the
    process; a forked child inherits it with the rows it holds and
    none of its helpers, unless it adopts them (:meth:`Engine.adopt`).
    """
    global _engine
    if _engine is None:
        _engine = Engine(helpers=len(os.sched_getaffinity(0)) - 1)
    return _engine


def set_engine(engine: Engine | None) -> Engine | None:
    """Replace the process's engine; returns the previous one.

    Passing ``None`` resets to a lazily created engine (helpers from the
    CPU mask as it is then).
    """
    global _engine
    previous, _engine = _engine, engine
    return previous


@contextmanager
def use_engine(engine: Engine) -> Iterator[Engine]:
    """Make ``engine`` the process's engine for a scope (restores the
    previous one, which keeps its caches)."""
    previous = set_engine(engine)
    try:
        yield engine
    finally:
        set_engine(previous)


__all__ = ["Engine", "get_engine", "set_engine", "use_engine"]
