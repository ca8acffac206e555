"""Deterministic fault injection for the exchange stack.

The paper's fairness argument (Section IV) assumes storage, chain and
arbiter all behave; this package is how the reproduction checks what
happens when they don't.  A seeded :class:`FaultPlan` schedules typed
failures — storage chunk loss and slow reads, transaction drops and
reverts, event-log lag, off-chain message loss and stalls — at named
*sites* instrumented throughout ``storage/``, ``chain/`` and ``core/``;
a :class:`RetryPolicy` plus the one abort/refund path every exchange
driver steps through (:class:`repro.faults.retry.ExchangeSteps`) provide
the recovery machinery, and the chaos suite
(``tests/test_faults.py``) asserts every schedule still terminates in a
safe state.

Off by default and designed to stay invisible: with no plan installed
every instrumented site is a single module-global ``None`` check
(budgeted at <2% of protocol wall-clock by
``benchmarks/bench_fault_overhead.py``).  Enable with::

    REPRO_FAULTS=storage:42         # <profile>:<seed>
    REPRO_FAULTS=42                 # seed only, 'all' profile

or programmatically::

    from repro import faults
    with faults.use_plan(faults.FaultPlan.profile("chain", seed=7)) as injector:
        result = marketplace.sell(...)
    injector.log                    # every injected fault, in order

Same seed, same plan => bit-identical fault schedule, which is what
makes every chaos failure replayable from the seed in the test report.
See ``docs/fault_injection.md`` for the taxonomy and replay recipe.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Iterator, Mapping, Optional

from repro.faults.injector import FaultInjector, InjectedFault, VirtualClock
from repro.faults.plan import KINDS, PPM, PROFILES, FaultPlan, FaultRule, draw
from repro.faults.retry import ABORT_POLICY, DEFAULT_POLICY, RetryPolicy

#: The process-wide active injector.  ``None`` (the default) is the
#: fast path: every helper below starts with one global load + compare.
_active: Optional[FaultInjector] = None


def active() -> Optional[FaultInjector]:
    """The installed :class:`FaultInjector`, or ``None`` when disabled."""
    return _active


def enabled() -> bool:
    return _active is not None


def set_plan(plan: Optional[FaultPlan]) -> Optional[FaultInjector]:
    """Install (or, with ``None``, remove) the active fault plan.

    Returns the previous injector so callers can restore it.
    """
    global _active
    previous = _active
    _active = None if plan is None else FaultInjector(plan)
    return previous


def install(injector: Optional[FaultInjector]) -> Optional[FaultInjector]:
    """Install a pre-built injector (or ``None``), returning the previous.

    :func:`set_plan` always constructs a *fresh* injector, which is right
    for tests but wrong for two callers: restoring an ambient injector
    you displaced (its budgets and log must survive), and fault-epoch
    rotation in the load simulator, where each epoch installs an
    injector built from a derived seed and the original must come back
    intact afterwards.
    """
    global _active
    previous = _active
    _active = injector
    return previous


@contextmanager
def use_plan(plan: Optional[FaultPlan]) -> Iterator[Optional[FaultInjector]]:
    """Scoped fault plane: installs ``plan``, yields its injector, and
    restores the previous state on exit."""
    global _active
    previous = set_plan(plan)
    try:
        yield _active
    finally:
        _active = previous


# ----- site helpers (the functions instrumented code calls) ---------------


def check(site: str) -> None:
    """Consult the fault plane at ``site``; no-op when disabled."""
    injector = _active
    if injector is not None:
        injector.check(site)


def unavailable(site: str) -> bool:
    """Boolean consultation for graceful-skip sites (DHT replicas)."""
    injector = _active
    return injector is not None and injector.unavailable(site)


def filter_bytes(site: str, data: bytes) -> bytes:
    """Route bytes through any matching ``corrupt`` rules."""
    injector = _active
    if injector is not None:
        return injector.filter_bytes(site, data)
    return data


def clock() -> Optional[VirtualClock]:
    """The active injector's virtual clock, if any."""
    injector = _active
    return None if injector is None else injector.clock


# ----- environment wiring -------------------------------------------------


def configure_from_env(environ: "Mapping[str, str] | None" = None) -> None:
    """Install a plan from ``REPRO_FAULTS`` (``<profile>:<seed>`` or a
    bare seed); with the variable unset or empty, nothing changes."""
    env = os.environ if environ is None else environ
    raw = env.get("REPRO_FAULTS", "").strip()
    if raw:
        set_plan(FaultPlan.from_env(raw))


configure_from_env()

__all__ = [
    "ABORT_POLICY",
    "DEFAULT_POLICY",
    "FaultInjector",
    "FaultPlan",
    "FaultRule",
    "InjectedFault",
    "KINDS",
    "PPM",
    "PROFILES",
    "RetryPolicy",
    "VirtualClock",
    "active",
    "check",
    "clock",
    "configure_from_env",
    "draw",
    "enabled",
    "filter_bytes",
    "install",
    "set_plan",
    "unavailable",
    "use_plan",
]
