"""Bounded, deterministic retry with exponential backoff.

The recovery half of the fault plane: protocol drivers wrap each
fallible step (a storage read, a transaction submission, an off-chain
message) in :meth:`RetryPolicy.run`.  Only :class:`repro.errors.TransientError`
subclasses are retried — everything else is a genuine protocol outcome
and propagates immediately.  The exchange drivers do so through one
:class:`ExchangeSteps` per run, which also owns their one abort path.

Backoff is exponential with *deterministic seeded jitter*: the jitter
fraction for attempt ``a`` at site ``s`` is a SHA-256 draw of
``(seed, s, a)``, so two runs of the same plan back off identically and
replays stay bit-exact.  All durations are integer microseconds on the
injector's :class:`repro.faults.injector.VirtualClock`; no real sleeping
ever happens, which is also why the disabled-path overhead of a policy
is one ``try``/``except`` per call.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterator, TypeVar

from repro import telemetry
from repro.errors import (
    DeadlineExceededError,
    ExchangeAbortedError,
    ProtocolError,
    RetryExhaustedError,
    TransientError,
)
from repro.faults.plan import PPM, draw
from repro.telemetry.spans import NOOP_SPAN

T = TypeVar("T")

#: Backoff grows by this factor per attempt, up to this cap, and a seeded
#: jitter takes off up to this share of it (in parts per million).
MULTIPLIER = 2
MAX_DELAY_US = 2_000_000
JITTER_PPM = PPM // 2


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded exponential backoff with deterministic seeded jitter.

    ``max_attempts`` counts calls, not retries (1 = no retry at all).
    ``timeout_us`` is a per-operation budget on the *virtual* clock:
    when injected latency plus backoff exceed it, the operation fails
    with :class:`DeadlineExceededError` even if attempts remain — the
    "per-operation timeout" leg of the failure taxonomy.
    """

    max_attempts: int = 5
    base_delay_us: int = 50_000
    timeout_us: int | None = None
    seed: int = 0

    def backoff_us(self, attempt: int, salt: str = "") -> int:
        """Virtual backoff before retry number ``attempt`` (0-based)."""
        delay = min(self.base_delay_us * MULTIPLIER**attempt, MAX_DELAY_US)
        fraction = draw(self.seed, attempt, 0, "retry:%s" % salt)
        return delay - delay * JITTER_PPM * fraction // (PPM * PPM)

    def run(
        self,
        operation: Callable[[], T],
        site: str = "operation",
    ) -> T:
        """Call ``operation`` until it succeeds, retrying transient errors.

        Raises :class:`RetryExhaustedError` once ``max_attempts`` calls
        all failed transiently, or :class:`DeadlineExceededError` when
        the virtual per-operation timeout elapses first.
        """
        from repro import faults  # late import: faults imports this module

        injector = faults.active()
        clock = injector.clock if injector is not None else None
        started_us = clock.now_us if clock is not None else 0
        last: TransientError | None = None
        for attempt in range(self.max_attempts):
            if attempt and telemetry.enabled():
                telemetry.counter("retry.attempts", site=site).inc()
            try:
                return operation()
            except TransientError as exc:
                last = exc
                if clock is not None:
                    clock.advance(self.backoff_us(attempt, site))
                    if (
                        self.timeout_us is not None
                        and clock.now_us - started_us > self.timeout_us
                    ):
                        if telemetry.enabled():
                            telemetry.counter("retry.deadline", site=site).inc()
                        raise DeadlineExceededError(
                            "operation %r exceeded its %d us budget after %d attempts"
                            % (site, self.timeout_us, attempt + 1)
                        ) from exc
        if telemetry.enabled():
            telemetry.counter("retry.exhausted", site=site).inc()
        raise RetryExhaustedError(
            "operation %r failed on all %d attempts; last error: %s"
            % (site, self.max_attempts, last)
        ) from last


#: The default policy protocol drivers use: enough attempts to outlast
#: every bounded budget in the shipped chaos profiles.
DEFAULT_POLICY = RetryPolicy()

#: A patient policy for safety-critical cleanup (abort/refund paths).
ABORT_POLICY = RetryPolicy(max_attempts=8, base_delay_us=25_000)


def must_land(chain, sender: str, contract, method: str, *args, site: str, noun: str):
    """Drive a safety-critical transaction through under :data:`ABORT_POLICY`.

    Until it lands, somebody's escrow is stranded, so there is no softer
    outcome to return: the receipt comes back only if the transaction
    succeeded.  One that still cannot be submitted, or that reverts,
    raises :class:`ExchangeAbortedError` naming ``noun`` ("buyer refund
    for exchange 3"); chaos plans with bounded fault budgets never reach
    it.
    """
    try:
        receipt = ABORT_POLICY.run(
            lambda: chain.transact(sender, contract, method, *args), site=site
        )
    except (RetryExhaustedError, DeadlineExceededError) as exc:
        raise ExchangeAbortedError("%s could not be submitted: %s" % (noun, exc)) from exc
    if not receipt.status:
        raise ExchangeAbortedError("%s reverted: %s" % (noun, receipt.error))
    return receipt


class ExchangeSteps:
    """One exchange run's fallible edges and its one abort path.

    A driver makes one per run and goes through it for every off-chain
    message (:meth:`send`), transaction (:meth:`tx`) and local step that
    may fail (:meth:`step`), each under the driver's policy.  A step that
    cannot complete raises :class:`ProtocolError` carrying the run's
    reason.  The driver says when the buyer's escrow is held and which
    transaction refunds it (:meth:`hold`), and when the key has landed
    (:meth:`release`); its one ``except`` hands any failure to
    :meth:`abort`.
    """

    def __init__(self, chain, protocol: str, policy: RetryPolicy):
        self.chain = chain
        self.protocol = protocol
        self.policy = policy
        #: Gas of every transaction the run landed, the refund's included.
        self.gas = 0
        self._refund: tuple | None = None
        self._released = False

    @contextmanager
    def step(self, noun: str, span=NOOP_SPAN) -> Iterator[None]:
        """Run the ``with`` body as the step ``noun`` inside ``span``.

        Retry exhaustion or a blown deadline becomes "<noun> undeliverable:
        ..." and marks the span ``aborted`` (the span itself closes
        cleanly); any other exception but a :class:`ProtocolError` becomes
        "<noun> failed: <type>: ...".
        """
        undelivered = None
        try:
            with span:
                try:
                    yield
                except (RetryExhaustedError, DeadlineExceededError) as exc:
                    span.set_attr("aborted", True)
                    undelivered = exc
        except ProtocolError:
            raise
        except Exception as exc:
            raise ProtocolError("%s failed: %s: %s" % (noun, type(exc).__name__, exc)) from exc
        if undelivered is not None:
            raise ProtocolError("%s undeliverable: %s" % (noun, undelivered)) from undelivered

    def send(self, site: str, noun: str) -> None:
        """Deliver one off-chain message over the channel ``site``."""
        from repro import faults  # late import: faults imports this module

        with self.step(noun):
            self.policy.run(lambda: faults.check(site), site=site)

    def tx(
        self, sender: str, contract, method: str, *args,
        site: str, noun: str, value: int = 0, span=NOOP_SPAN, fatal: str | None = None,
    ):
        """Submit one transaction and add its gas.

        A reverted receipt is returned for the driver to judge, unless the
        driver declared it ``fatal``: then the step fails with
        "<fatal>: <revert reason>".
        """
        with self.step(noun, span):
            receipt = self.policy.run(
                lambda: self.chain.transact(sender, contract, method, *args, value=value),
                site=site,
            )
            span.set_attrs(receipt.span_attrs())
        self.gas += receipt.gas_used
        if fatal is not None and not receipt.status:
            raise ProtocolError("%s: %s" % (fatal, receipt.error))
        return receipt

    def hold(
        self, sender: str, contract, method: str, *args,
        site: str, noun: str, span=NOOP_SPAN, after_blocks: int = 0,
    ) -> None:
        """The buyer's escrow is held: until :meth:`release`, an abort
        lands ``method(*args)`` from ``sender`` inside ``span``, after
        sealing ``after_blocks`` blocks for a contract that refunds only
        once its window has passed."""
        self._refund = (sender, contract, method, args, site, noun, span, after_blocks)

    def release(self) -> None:
        """The key has landed and the escrow window is closed."""
        self._released = True

    def abort(self, exc: Exception) -> str:
        """End the run through the abort path and return its reason.

        A held escrow is refunded through :func:`must_land` first, so the
        only way out with it still locked is :class:`ExchangeAbortedError`.
        After :meth:`release` the seller has been paid and there is
        nothing to abort: ``exc`` propagates.
        """
        if self._released:
            raise exc
        if self._refund is not None:
            sender, contract, method, args, site, noun, span, after_blocks = self._refund
            with span:
                for _ in range(after_blocks):
                    self.chain.seal_block()
                receipt = must_land(
                    self.chain, sender, contract, method, *args, site=site, noun=noun
                )
                span.set_attrs(receipt.span_attrs("refund"))
            self.gas += receipt.gas_used
        if telemetry.enabled():
            telemetry.counter("exchange.aborted", protocol=self.protocol).inc()
        if isinstance(exc, ProtocolError):
            return str(exc)
        return "%s: %s" % (type(exc).__name__, exc)
