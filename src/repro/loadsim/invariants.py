"""Whole-run conservation invariants, checked continuously.

The :class:`InvariantChecker` is an *independent ledger*: it replays the
chain's receipt stream event by event (a cursor makes each check
incremental — receipts are visited once, ever) and rebuilds its own view
of token ownership and open escrows.  Each mining round the rebuilt
view is compared against the chain's actual state, so a conservation
break surfaces within one round of the transaction that caused it, with
the whole fault schedule still replayable from the seed.

The catalogue (see ``docs/loadsim.md``):

- **conservation** — every unit of value on chain was injected by the
  population faucet: ``chain.total_balance() == funds_injected``.
- **escrow accounting** — the arbiter's balance is exactly the sum of
  open deals; nothing stranded, nothing double-released.
- **no double-spend** — a ``Transfer`` must come from the replayed
  current owner; final token ownership matches the replay exactly.
- **no key release without payment** — an ``Opened`` (key revealed)
  must hit a live ``Locked`` deal, at most once, never after a refund
  (and vice versa).
- **terminal cleanliness** (:meth:`check_final`) — no open deals, empty
  mempool, arbiter balance zero, block hash linkage intact.
"""

from __future__ import annotations

from repro.chain import Blockchain
from repro.loadsim.population import Population


class InvariantChecker:
    """Replays receipts into a shadow ledger and diffs it against state."""

    def __init__(self, chain: Blockchain, token, arbiter, population: Population) -> None:
        self.chain = chain
        self.token = token
        self.arbiter = arbiter
        self.population = population
        self.violations: list[str] = []
        self._cursor = 0  # receipts replayed so far
        self._owner: dict[int, str] = {}  # token_id -> replayed owner
        self._open: dict[int, tuple[str, int]] = {}  # deal_id -> (buyer, amount)
        self._settled: set[int] = set()
        self._refunded: set[int] = set()
        self.checks_run = 0

    # ----- shadow-ledger replay ---------------------------------------------------

    def _violate(self, message: str) -> None:
        self.violations.append(message)

    def _replay_new_receipts(self) -> None:
        receipts = self.chain.receipts
        while self._cursor < len(receipts):
            receipt = receipts[self._cursor]
            self._cursor += 1
            if not receipt.status:
                continue  # reverted transactions emit nothing
            for event in receipt.events:
                self._replay_event(event)

    def _replay_event(self, event) -> None:
        name = event.name
        if name == "Minted":
            token_id = event.get("token_id")
            if token_id in self._owner:
                self._violate("token %d minted twice" % token_id)
            self._owner[token_id] = event.get("to")
        elif name == "Transfer":
            token_id = event.get("token_id")
            frm, to = event.get("frm"), event.get("to")
            current = self._owner.get(token_id)
            if current != frm:
                self._violate(
                    "double-spend: token %s transferred by %s but replayed owner is %s"
                    % (token_id, frm, current)
                )
            self._owner[token_id] = to
        elif name == "Burned":
            self._owner.pop(event.get("token_id"), None)
        elif name == "Locked":
            deal_id = event.get("deal_id")
            buyer, amount = event.get("buyer"), event.get("amount")
            if deal_id in self._open or deal_id in self._settled or deal_id in self._refunded:
                self._violate("deal %d locked twice" % deal_id)
                return
            self._open[deal_id] = (buyer, amount)
        elif name == "Opened":
            deal_id = event.get("deal_id")
            deal = self._open.pop(deal_id, None)
            if deal is None:
                self._violate(
                    "key released without payment: deal %s opened but not in open escrow "
                    "(settled=%s refunded=%s)"
                    % (deal_id, deal_id in self._settled, deal_id in self._refunded)
                )
                return
            self._settled.add(deal_id)
        elif name == "Refunded":
            deal_id = event.get("deal_id")
            deal = self._open.pop(deal_id, None)
            if deal is None:
                self._violate("deal %s refunded but not in open escrow" % deal_id)
                return
            self._refunded.add(deal_id)

    # ----- the per-round diff -----------------------------------------------------

    def open_escrow_total(self) -> int:
        return sum(amount for _buyer, amount in self._open.values())

    def check_round(self) -> bool:
        """Replay new receipts, then diff the shadow ledger against the
        chain.  Returns ``True`` when no *new* violation was found."""
        before = len(self.violations)
        self._replay_new_receipts()
        self.checks_run += 1

        total = self.chain.total_balance()
        injected = self.population.funds_injected
        if total != injected:
            self._violate(
                "conservation broken: total balance %d != funds injected %d" % (total, injected)
            )

        escrow = self.chain.balance_of(self.arbiter.address)
        expected_escrow = self.open_escrow_total()
        if escrow != expected_escrow:
            self._violate(
                "escrow accounting broken: arbiter holds %d but open deals sum to %d"
                % (escrow, expected_escrow)
            )
        return len(self.violations) == before

    def check_final(self) -> bool:
        """End-of-run checks: everything per-round, plus terminal state."""
        before = len(self.violations)
        self.check_round()
        if self._open:
            self._violate(
                "stranded escrow: %d deals still open at end of run (e.g. %s)"
                % (len(self._open), sorted(self._open)[:5])
            )
        if self.chain.balance_of(self.arbiter.address) != self.open_escrow_total():
            self._violate("arbiter balance nonzero with no open deals")
        if len(self.chain.mempool) != 0:
            self._violate("mempool not drained: %d transactions left" % len(self.chain.mempool))
        if not self.chain.verify_chain():
            self._violate("block hash linkage broken")
        for token_id, owner in self._owner.items():
            on_chain = self.chain.call_view(self.token, "owner_of", token_id)
            if on_chain != owner:
                self._violate(
                    "ownership divergence: token %d owned by %s on chain, %s in replay"
                    % (token_id, on_chain, owner)
                )
        return len(self.violations) == before
