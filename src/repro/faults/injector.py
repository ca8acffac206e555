"""The runtime side of the fault plane: consultation, logging, clocks.

Instrumented sites in storage, chain and protocol code consult the
active :class:`FaultInjector` (via the module-level helpers in
:mod:`repro.faults`); the injector evaluates the plan's rules against
the site name and either returns quietly, advances the virtual clock
(``delay``/``stall``), mutates bytes in flight (``corrupt``) or raises
one of the typed transient errors from :mod:`repro.errors`.

Everything the injector does is recorded twice: in ``self.log`` (the
deterministic ground truth the replay tests compare bit-for-bit) and —
when telemetry is on — in the global registry under
``faults.injected.<kind>`` counters.

Time is *virtual*: injected latency and retry backoff advance
:class:`VirtualClock` rather than sleeping, so chaos suites explore
timeout behaviour (deadlines, stalls, backoff budgets) in microseconds
of real time while remaining bit-reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from repro import telemetry
from repro.errors import (
    EventDelayError,
    MessageLossError,
    MessageStallError,
    ReproError,
    StorageTimeoutError,
    StorageUnavailableError,
    TxDroppedError,
    TxRevertedError,
)
from repro.faults.plan import PPM, FaultPlan, FaultRule, draw


class VirtualClock:
    """Monotonic simulated time in integer microseconds."""

    __slots__ = ("now_us",)

    def __init__(self) -> None:
        self.now_us = 0

    def advance(self, delta_us: int) -> None:
        if delta_us < 0:
            raise ReproError("the virtual clock cannot run backwards")
        self.now_us += delta_us


@dataclass(frozen=True)
class InjectedFault:
    """One log entry: the n-th fault of a run, with full provenance."""

    sequence: int
    site: str
    kind: str
    rule_index: int


def _loss_error(site: str) -> ReproError:
    if site.startswith(("storage", "dht")):
        return StorageUnavailableError("injected fault: %s unavailable" % site)
    if site.startswith("chain"):
        return TxDroppedError("injected fault: transaction dropped at %s" % site)
    return MessageLossError("injected fault: message lost at %s" % site)


def _stall_error(site: str) -> ReproError:
    if site.startswith(("storage", "dht")):
        return StorageTimeoutError("injected fault: %s stalled" % site)
    if site.startswith("chain"):
        return EventDelayError("injected fault: event delivery lagging at %s" % site)
    return MessageStallError("injected fault: counterparty stalled at %s" % site)


class FaultInjector:
    """Evaluates a :class:`FaultPlan` at every consulted site."""

    def __init__(self, plan: FaultPlan):
        self.plan = plan
        self.clock = VirtualClock()
        self.log: list[InjectedFault] = []
        self._consults: dict[int, int] = {}
        self._fired: dict[int, int] = {}

    # ----- bookkeeping ----------------------------------------------------

    @property
    def consultations(self) -> int:
        """Total per-rule consultations so far (the overhead-bench count)."""
        return sum(self._consults.values())

    @property
    def injected(self) -> int:
        return len(self.log)

    def _record(self, site: str, rule: FaultRule, rule_index: int) -> None:
        self.log.append(InjectedFault(len(self.log), site, rule.kind, rule_index))
        if telemetry.enabled():
            telemetry.counter("faults.injected.%s" % rule.kind, site=site).inc()

    def _firing(self, site: str) -> Iterator[FaultRule]:
        """Yield every rule that fires for this consultation of ``site``."""
        for index, rule in enumerate(self.plan.rules):
            if not rule.matches(site):
                continue
            sequence = self._consults.get(index, 0)
            self._consults[index] = sequence + 1
            if rule.max_faults is not None and self._fired.get(index, 0) >= rule.max_faults:
                continue
            if rule.probability_ppm == 0:
                continue
            if draw(self.plan.seed, index, sequence, site) < rule.probability_ppm:
                self._fired[index] = self._fired.get(index, 0) + 1
                self._record(site, rule, index)
                yield rule

    # ----- consultation API ----------------------------------------------

    def check(self, site: str) -> None:
        """Raise a typed transient error (or advance the clock) if a
        matching rule fires; quiet otherwise."""
        for rule in self._firing(site):
            if rule.kind in ("delay",):
                self.clock.advance(rule.delay_us)
            elif rule.kind == "stall":
                self.clock.advance(rule.delay_us)
                raise _stall_error(site)
            elif rule.kind == "loss":
                raise _loss_error(site)
            elif rule.kind == "drop":
                raise TxDroppedError("injected fault: transaction dropped at %s" % site)
            elif rule.kind == "revert":
                raise TxRevertedError("injected fault: transaction reverted at %s" % site)
            # "corrupt" rules only act through filter_bytes().

    def unavailable(self, site: str) -> bool:
        """Boolean consultation for graceful-skip sites (DHT replicas):
        ``loss`` means "this node is unreachable, try the next" rather
        than an exception."""
        lost = False
        for rule in self._firing(site):
            if rule.kind in ("delay", "stall"):
                self.clock.advance(rule.delay_us)
            elif rule.kind == "loss":
                lost = True
        return lost

    def filter_bytes(self, site: str, data: bytes) -> bytes:
        """Pass ``data`` through any matching ``corrupt`` rules.

        Corruption is deterministic (first byte XOR 0xFF) so a replayed
        run corrupts identically.
        """
        for rule in self._firing(site):
            if rule.kind == "corrupt" and data:
                data = bytes([data[0] ^ 0xFF]) + data[1:]
        return data

    def __repr__(self) -> str:
        return "FaultInjector(plan=%s, seed=%d, injected=%d)" % (
            self.plan.name,
            self.plan.seed,
            len(self.log),
        )


__all__ = ["FaultInjector", "InjectedFault", "VirtualClock", "PPM"]
