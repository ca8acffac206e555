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
one helper per spare core of the CPU mask (none on one CPU), and
:class:`~repro.service.pool.ProverPool` gives each of its workers its
share of the spares by the same rule (:func:`spare_cores`).  A scope
that wants another engine installs one::

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


def spare_cores(processes: int = 1) -> int:
    """Helpers for each of ``processes`` proving processes: its share of
    the CPU mask less the core it runs on itself."""
    return max(0, len(os.sched_getaffinity(0)) // processes - 1)


def get_engine() -> Engine:
    """Return the process's engine, creating it on first use with
    :func:`spare_cores` helpers.

    It is shared so its caches amortise across every proof in the
    process; a forked child inherits it with the rows it holds and
    none of its helpers.
    """
    global _engine
    if _engine is None:
        _engine = Engine(helpers=spare_cores())
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


__all__ = ["Engine", "get_engine", "set_engine", "spare_cores", "use_engine"]
