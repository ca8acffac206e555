"""The fee-ordered mempool: bounded admission, priority mining, eviction.

The seed chain executed every transaction the moment it was submitted —
fine for per-exchange tests, wrong for a population-scale simulation
where 10^4 clients compete for block space.  This module adds the
missing admission layer:

- :class:`PendingTx` — an unmined transaction: target, calldata, value,
  and an integer priority ``fee`` (a tip, in wei-like units; priority
  metadata only, never debited, so balance conservation stays exact).
- :class:`Mempool` — a bounded pool ordered by ``(fee desc, seq asc)``:
  the highest bidder mines first, FIFO among equal fees.  At capacity a
  new transaction must strictly beat the current fee floor; it then
  evicts the cheapest resident (ties broken against the *latest*
  arrival, so long-waiting transactions survive a fee war longest).
  Anything cheaper is rejected synchronously with
  :class:`~repro.errors.MempoolFullError` — the client learns it was
  shed before any state exists for it, exactly like the service plane's
  :class:`~repro.service.queue.FairQueue`.

Everything is integer-valued and insertion-ordered, so a mempool replay
under the same submission stream is bit-identical — the property the
load simulator's whole-run digest relies on.

Implementation: two lazily-synchronised binary heaps (a serving max-heap
and an eviction min-heap) over the same entries, with a live-sequence
set as the tombstone filter.  ``add``/``pop``/``evict`` are all
O(log n) amortised.  A mined transaction leaves a stale entry in the
eviction heap; :meth:`Mempool.pop` rebuilds that heap from the live set
once stale entries outnumber live ones, so it stays within twice the
pool's size on a chain that never fills its pool.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Dict, List, Optional, Set

from repro import telemetry
from repro.errors import MempoolFullError


@dataclass(frozen=True)
class PendingTx:
    """One submitted-but-unmined transaction."""

    seq: int  #: global admission order (the FIFO tiebreak)
    sender: str
    contract: object  #: the deployed Contract instance to call
    method: str
    args: tuple
    value: int
    fee: int
    gas_limit: int


class Mempool:
    """Bounded fee-priority transaction pool with deterministic eviction."""

    def __init__(self, capacity: int = 4096) -> None:
        if capacity < 1:
            raise MempoolFullError("mempool capacity must be at least 1")
        self.capacity = capacity
        self._serve: List[tuple] = []  # (-fee, seq) max-fee heap
        self._evict: List[tuple] = []  # (fee, -seq) min-fee heap
        self._txs: Dict[int, PendingTx] = {}  # live entries by seq
        self._next_seq = 0
        self._evicted_txs: List[PendingTx] = []
        #: Lifetime accounting (monotonic, survives drains).
        self.admitted = 0
        self.evicted = 0
        self.rejected = 0

    def __len__(self) -> int:
        return len(self._txs)

    def __bool__(self) -> bool:
        return bool(self._txs)

    def fee_floor(self) -> Optional[int]:
        """The lowest live fee (what a new transaction must beat when
        the pool is full), or ``None`` when empty."""
        while self._evict and self._evict[0][1] * -1 not in self._txs:
            heapq.heappop(self._evict)
        return self._evict[0][0] if self._evict else None

    def add(
        self,
        sender: str,
        contract: object,
        method: str,
        args: tuple = (),
        value: int = 0,
        fee: int = 0,
        gas_limit: int = 30_000_000,
    ) -> PendingTx:
        """Admit one transaction, evicting the cheapest resident if full.

        Raises :class:`MempoolFullError` when the pool is full and
        ``fee`` does not strictly beat the current floor.
        """
        if fee < 0 or value < 0:
            raise MempoolFullError("fee and value must be non-negative")
        if len(self._txs) >= self.capacity:
            floor = self.fee_floor()
            if floor is None or fee <= floor:
                self.rejected += 1
                if telemetry.enabled():
                    telemetry.counter("chain.mempool.rejected").inc()
                raise MempoolFullError(
                    "mempool full (%d txs); fee %d does not beat the floor %s"
                    % (len(self._txs), fee, floor)
                )
            self._evict_cheapest()
        tx = PendingTx(self._next_seq, sender, contract, method, tuple(args), value, fee, gas_limit)
        self._next_seq += 1
        self._txs[tx.seq] = tx
        heapq.heappush(self._serve, (-tx.fee, tx.seq))
        heapq.heappush(self._evict, (tx.fee, -tx.seq))
        self.admitted += 1
        if telemetry.enabled():
            telemetry.counter("chain.mempool.admitted").inc()
        return tx

    def _evict_cheapest(self) -> PendingTx:
        while True:
            fee, neg_seq = heapq.heappop(self._evict)
            victim = self._txs.pop(-neg_seq, None)
            if victim is not None:
                self.evicted += 1
                self._evicted_txs.append(victim)
                if telemetry.enabled():
                    telemetry.counter("chain.mempool.evicted").inc()
                return victim

    def pop(self) -> Optional[PendingTx]:
        """Remove and return the highest-priority transaction."""
        while self._serve:
            neg_fee, seq = heapq.heappop(self._serve)
            tx = self._txs.pop(seq, None)
            if tx is not None:
                if len(self._evict) > 2 * len(self._txs):
                    # Only a full pool pops the eviction heap, so without
                    # this it keeps an entry for every transaction ever
                    # mined.  Keys are unique: the order it yields is the
                    # same whatever its layout.
                    self._evict = [(live.fee, -live.seq) for live in self._txs.values()]
                    heapq.heapify(self._evict)
                return tx
        return None

    def take(self, n: int) -> List[PendingTx]:
        """Remove and return up to ``n`` transactions in mining order."""
        batch: List[PendingTx] = []
        while len(batch) < n and self._txs:
            batch.append(self.pop())
        return batch

    def drain_evicted(self) -> List[PendingTx]:
        """Evicted transactions since the last call (and clear the log).

        Eviction is silent from the submitter's point of view — the
        transaction simply never mines — so clients that must not lose
        work (the load simulator's trade state machines) poll this each
        round and re-offer victims at a higher fee.
        """
        out, self._evicted_txs = self._evicted_txs, []
        return out

    def drain_order(self) -> List[PendingTx]:
        """The current contents in mining order, without removing them
        (diagnostics / digest support)."""
        live: Set[int] = set(self._txs)
        return [self._txs[seq] for _fee, seq in sorted(self._serve) if seq in live]
