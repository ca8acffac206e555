"""Lazy account population: 10^6 users without 10^6 upfront accounts.

A :class:`Population` maps dense user indices ``[0, size)`` to chain
accounts, materialising an account (and its faucet funding) the first
time an index is actually drawn by the traffic stream.  With skewed
user draws most of a million-user population is never touched, so the
simulator's memory and setup cost follow the *active* user count while
invariants still range over the whole nominal population.

The population is also the funding authority: every unit of value on
the chain entered through it, so ``funds_injected`` is the exact
right-hand side of the conservation invariant
``chain.total_balance() == population.funds_injected``.
"""

from __future__ import annotations

from repro.chain import Blockchain
from repro.errors import ReproError


class Population:
    """Dense-indexed, lazily materialised user accounts."""

    def __init__(self, chain: Blockchain, size: int, funds_each: int) -> None:
        if size < 1:
            raise ReproError("population size must be positive")
        if funds_each < 0:
            raise ReproError("per-user funding must be non-negative")
        self.chain = chain
        self.size = size
        self.funds_each = funds_each
        self._accounts: dict[int, str] = {}
        #: Total value faucet-ed into existence (accounts created so far
        #: times ``funds_each``).
        self.funds_injected = 0

    @property
    def materialized(self) -> int:
        """How many users have actually appeared in the traffic stream."""
        return len(self._accounts)

    def account(self, index: int) -> str:
        """The chain address of user ``index``, creating it on first use."""
        if not 0 <= index < self.size:
            raise ReproError("user index %d outside population [0, %d)" % (index, self.size))
        address = self._accounts.get(index)
        if address is None:
            address = self.chain.create_account(funded=self.funds_each)
            self._accounts[index] = address
            self.funds_injected += self.funds_each
        return address
