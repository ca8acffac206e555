"""Batched settlement: accumulate completed exchanges, settle k at a time.

Completed exchanges do not hit the chain one transaction each.  The
batcher parks each ``(exchange_id, k_c, proof_bytes, key_bytes)`` entry
behind an awaitable future and flushes when either ``batch_size`` members
are waiting or ``max_delay`` seconds pass since the first member arrived —
the standard size-or-age policy, so a lone exchange in a quiet period is
never parked indefinitely.

A flush is **one** transaction from the node's relay account to
:meth:`KeySecureArbiterContract.submit_key_batch`, which verifies every
member through the verifier contract's random-linear-combination fold:
one pairing check for the whole batch, per-member gas amortised to
``receipt.gas_used // k``.  The arbiter settles each valid member to its
*stored* seller, so relaying is trustless (see the contract docstring).

Failure isolation: a member whose proof fails verification resolves as
``settled=False`` — its exchange stays open for the caller to abort and
refund — while its batchmates settle normally.  Only a transport-level
failure of the batch transaction itself (injected drops exhausting the
retry policy) rejects every member's future, and the node then drives
each member's refund individually.
"""

from __future__ import annotations

import asyncio
from typing import List, Optional, Tuple

from repro import telemetry
from repro.chain import Blockchain
from repro.contracts import KeySecureArbiterContract
from repro.faults.retry import RetryPolicy


class SettlementBatcher:
    """Size-or-age batching of ``submit_key_batch`` settlements."""

    def __init__(
        self,
        chain: Blockchain,
        arbiter: KeySecureArbiterContract,
        relay_address: str,
        batch_size: int = 8,
        max_delay: float = 0.02,
        retry: Optional[RetryPolicy] = None,
    ) -> None:
        if batch_size <= 0:
            raise ValueError("batch_size must be positive")
        self.chain = chain
        self.arbiter = arbiter
        self.relay_address = relay_address
        self.batch_size = batch_size
        self.max_delay = max_delay
        self.retry = retry if retry is not None else RetryPolicy()
        #: Waiting members: (exchange_id, k_c, proof_bytes, key_bytes, future).
        self._pending: List[tuple] = []
        self._timer: Optional[asyncio.TimerHandle] = None
        #: Gas spent across all flushed batch transactions.
        self.gas_total = 0
        self.batches_flushed = 0

    async def settle(
        self, exchange_id: int, k_c: int, proof_bytes: bytes, key_bytes: bytes
    ) -> Tuple[bool, int]:
        """Queue one exchange for batched settlement; await its outcome.
        ``key_bytes`` encodes the key commitment [k] pi_k links to.

        Resolves to ``(settled, gas_share)``.  Raises whatever the batch
        transaction raised (retry exhaustion) when the flush itself could
        not be delivered.
        """
        loop = asyncio.get_running_loop()
        fut: asyncio.Future = loop.create_future()
        self._pending.append((exchange_id, k_c, proof_bytes, key_bytes, fut))
        if len(self._pending) >= self.batch_size:
            self._flush()
        elif self._timer is None:
            self._timer = loop.call_later(self.max_delay, self._flush)
        return await fut

    async def drain(self) -> None:
        """Flush any waiting members immediately (shutdown path)."""
        if self._pending:
            self._flush()
        # Yield once so just-resolved futures' awaiters run.
        await asyncio.sleep(0)

    def _flush(self) -> None:
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        batch, self._pending = self._pending, []
        if not batch:
            return
        entries = tuple(member[:4] for member in batch)
        try:
            receipt = self.retry.run(
                lambda: self.chain.transact(
                    self.relay_address,
                    self.arbiter,
                    "submit_key_batch",
                    entries,
                ),
                site="chain.submit_key",
            )
        except Exception as exc:
            for *_, fut in batch:
                if not fut.done():
                    fut.set_exception(exc)
            return
        self.batches_flushed += 1
        self.gas_total += receipt.gas_used
        gas_share = receipt.gas_used // len(batch)
        settled = set(receipt.return_value) if receipt.status else set()
        if telemetry.enabled():
            telemetry.histogram("service.settlement.batch_size").observe(len(batch))
            telemetry.counter("service.settlement.settled").inc(len(settled))
            telemetry.counter(
                "service.settlement.unsettled"
            ).inc(len(batch) - len(settled))
        for eid, *_, fut in batch:
            if not fut.done():
                fut.set_result((eid in settled, gas_share))
