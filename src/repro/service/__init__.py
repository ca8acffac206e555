"""The marketplace service plane: a long-lived asyncio exchange node.

Everything below :mod:`repro.core` runs one exchange as a synchronous
in-process call.  This package adds the serving layer the paper's
throughput claims presuppose:

- :class:`~repro.service.queue.FairQueue` — bounded admission with
  per-tenant budgets and round-robin dispatch (backpressure at the door,
  not in the middle of a protocol run);
- :class:`~repro.service.pool.ProverPool` — a persistent forked prover
  that inherits the parent's warmed SRS, circuit-key and window-table
  caches and its MSM helpers, so CPU-bound pi_k proving never re-derives
  them;
- :class:`~repro.service.settlement.SettlementBatcher` — accumulates
  completed exchanges and settles them k-at-a-time through the arbiter's
  ``submit_key_batch`` (one batched pairing check, amortised gas);
- :class:`~repro.service.node.MarketplaceNode` — sessions, accounts and
  the request pipeline tying the three together.

See ``docs/service.md`` for the architecture discussion.
"""

from repro.service.node import (
    ExchangeRequest,
    MarketplaceNode,
    NegotiationBundle,
    NodeConfig,
    RequestOutcome,
    Session,
)
from repro.service.pool import ProverPool
from repro.service.queue import FairQueue
from repro.service.settlement import SettlementBatcher

__all__ = [
    "ExchangeRequest",
    "FairQueue",
    "MarketplaceNode",
    "NegotiationBundle",
    "NodeConfig",
    "ProverPool",
    "RequestOutcome",
    "Session",
    "SettlementBatcher",
]
