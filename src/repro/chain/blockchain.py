"""The simulated blockchain: accounts, transactions, mempool, blocks.

Implements the standard assumptions of the paper's threat model
(Section IV-A): the chain is tamper-resistant (blocks are hash-chained and
:meth:`Blockchain.verify_chain` detects modification) and consistent (one
world state; every transaction either commits atomically or reverts).

One scale upgrade sits on top of the seed semantics, invisible unless
used: the **fee-ordered mempool** (:attr:`Blockchain.mempool`).  Clients
:meth:`submit` transactions instead of executing them inline, and
:meth:`mine_round` pulls them in fee order under a block-size budget and
seals them into the one hash-linked chain.  The direct :meth:`transact`
path is unchanged — mining is the same call under the hood.
"""

from __future__ import annotations

import hashlib
import itertools
import weakref
from dataclasses import dataclass

from repro import faults
from repro.errors import ChainError, ContractError, OutOfGasError, TxDroppedError, TxRevertedError
from repro.chain.contract import Contract, ExecutionContext
from repro.chain.events import Event, EventIndex
from repro.chain.gas import DEFAULT_SCHEDULE
from repro.chain.mempool import Mempool, PendingTx


def _encode_value(out: bytearray, value) -> None:
    if isinstance(value, bool):
        out.extend(int(value).to_bytes(32, "big"))
    elif isinstance(value, int):
        out.extend((value % (1 << 256)).to_bytes(32, "big"))
    elif isinstance(value, str):
        out.extend(len(value).to_bytes(32, "big"))
        out.extend(value.encode())
    elif isinstance(value, bytes):
        out.extend(len(value).to_bytes(32, "big"))
        out.extend(value)
    elif isinstance(value, (list, tuple)):
        out.extend(len(value).to_bytes(32, "big"))
        for item in value:
            _encode_value(out, item)
    elif value is None:
        out.extend(b"\x00" * 32)
    else:  # objects with a canonical byte form
        to_bytes = getattr(value, "to_bytes", None)
        if callable(to_bytes):
            data = value.to_bytes()
            out.extend(len(data).to_bytes(32, "big"))
            out.extend(data)
        else:
            raise ChainError("cannot encode calldata value %r" % (value,))


def encode_calldata(method: str, args: tuple) -> bytes:
    """Deterministic ABI-style encoding used for calldata gas metering."""
    out = bytearray(hashlib.sha256(method.encode()).digest()[:4])
    # Not a closure over ``out``: a nested function that calls itself is a
    # reference cycle, one per transaction, only the collector can free.
    for a in args:
        _encode_value(out, a)
    return bytes(out)


@dataclass
class TransactionReceipt:
    """Outcome of a transaction."""

    tx_hash: str
    sender: str
    to: str
    method: str
    gas_used: int
    status: bool
    events: list
    return_value: object = None
    error: str | None = None
    block_number: int | None = None

    def span_attrs(self, prefix: str = "tx") -> dict:
        """This receipt as flat span attributes (gas, status, event names).

        The telemetry layer attaches these to protocol-step spans so a
        trace carries the matching on-chain evidence for every step.
        """
        attrs = {
            prefix + ".method": self.method,
            prefix + ".gas": self.gas_used,
            prefix + ".status": self.status,
            prefix + ".events": [e.name for e in self.events],
        }
        if self.error:
            attrs[prefix + ".error"] = self.error
        return attrs


@dataclass(frozen=True)
class Block:
    number: int
    parent_hash: str
    tx_hashes: tuple

    @property
    def hash(self) -> str:
        payload = "%d:%s:%s" % (self.number, self.parent_hash, ",".join(self.tx_hashes))
        return hashlib.sha256(payload.encode()).hexdigest()


@dataclass
class MiningRound:
    """Outcome of one :meth:`Blockchain.mine_round`."""

    block: Block | None  #: ``None`` when there was nothing to seal
    #: ``(tx, receipt)`` for every transaction that was mined (the
    #: receipt may be a failed one — reverts are still on chain).
    executed: list
    #: Transactions lost in flight (injected ``drop`` faults): no
    #: receipt, no nonce bump — the submitter decides whether to retry.
    dropped: list


class Blockchain:
    """A single-node simulated chain with deterministic gas metering."""

    def __init__(self, mempool_capacity: int = 4096):
        self.schedule = DEFAULT_SCHEDULE
        self.mempool = Mempool(mempool_capacity)
        self._balances: dict[str, int] = {}
        #: Inside a transaction: each address whose balance it moved, with
        #: the balance before (None: no entry), restored if it reverts.
        self._journal: dict[str, int | None] | None = None
        self._nonces: dict[str, int] = {}
        self.contracts: dict[str, Contract] = {}
        self.receipts: list[TransactionReceipt] = []
        self._event_index = EventIndex()
        self.blocks: list[Block] = [Block(0, "0" * 64, ())]
        #: Unsealed receipts (sealing stamps block numbers in O(pending),
        #: not O(all receipts)).
        self._pending: list[TransactionReceipt] = []
        self._counter = itertools.count(1)

    # ----- accounts -----------------------------------------------------------

    def create_account(self, funded: int = 0) -> str:
        """Create an externally owned account with an optional balance."""
        address = "0x" + hashlib.sha256(b"account:%d" % next(self._counter)).hexdigest()[:40]
        self._balances[address] = funded
        self._nonces[address] = 0
        return address

    def balance_of(self, address: str) -> int:
        return self._balances.get(address, 0)

    def faucet(self, address: str, amount: int) -> None:
        """Credit an account (test/benchmark convenience)."""
        self._balances[address] = self.balance_of(address) + amount

    def _move_balance(self, sender: str, to: str, amount: int) -> None:
        if amount < 0:
            raise ChainError("negative transfer")
        if self.balance_of(sender) < amount:
            raise ContractError("insufficient balance in %s" % sender)
        if self._journal is not None:
            for address in (sender, to):
                self._journal.setdefault(address, self._balances.get(address))
        self._balances[sender] = self.balance_of(sender) - amount
        self._balances[to] = self.balance_of(to) + amount

    # ----- deployment -----------------------------------------------------------

    def deploy(self, contract: Contract, sender: str) -> TransactionReceipt:
        """Deploy a contract instance; gas follows the code-deposit rule."""
        address = "0x" + hashlib.sha256(
            b"contract:%s:%d" % (type(contract).__name__.encode(), next(self._counter))
        ).hexdigest()[:40]
        # The chain owns its contracts; they refer back weakly, so a chain
        # nobody holds is freed by reference counting with its receipts
        # and events rather than waiting for the cycle collector.  (Bound
        # here, not in Contract._bind: a contract method's bytecode is
        # what code_size() meters.)
        contract._bind(weakref.proxy(self), address)
        self.contracts[address] = contract
        self._balances[address] = 0
        gas = self.schedule.deployment_cost(contract.code_size())
        receipt = self._record(
            sender, address, "<deploy:%s>" % type(contract).__name__, gas, True, [], address
        )
        return receipt

    # ----- transactions -----------------------------------------------------------

    def transact(
        self,
        sender: str,
        contract: Contract,
        method: str,
        *args,
        value: int = 0,
        gas_limit: int = 30_000_000,
    ) -> TransactionReceipt:
        """Execute a state-changing contract call as one atomic transaction.

        Under a fault plan the ``chain.transact`` site can inject: a
        ``drop`` (the transaction is never mined — no receipt, no nonce
        bump, :class:`TxDroppedError` raised for the submitter to retry),
        a ``revert`` (mined but reverted before the call body ran: a
        failed receipt is recorded and :class:`TxRevertedError` raised),
        or a ``delay`` (inclusion latency on the virtual clock).
        """
        if contract.address not in self.contracts:
            raise ChainError("contract is not deployed on this chain")
        fn = getattr(contract, method, None)
        if fn is None or not getattr(fn, "_is_external", False):
            raise ChainError("method %r is not an external entry point" % method)
        try:
            faults.check("chain.transact")
        except TxRevertedError as exc:
            # Mined-but-reverted: the chain records the failed attempt.
            self._nonces[sender] = self._nonces.get(sender, 0) + 1
            self._record(sender, contract.address, method,
                         self.schedule.tx_base, False, [], None, str(exc))
            raise
        calldata = encode_calldata(method, args)
        ctx = ExecutionContext(self, sender, value, gas_limit)
        self._nonces[sender] = self._nonces.get(sender, 0) + 1

        journal = self._journal = {}
        contract._ctx = ctx
        status, ret, error = True, None, None
        try:
            ctx.burn(self.schedule.tx_base + self.schedule.calldata_cost(calldata))
            if value:
                self._move_balance(sender, contract.address, value)
            ret = fn(*args)
        except (ContractError, OutOfGasError) as exc:
            status, error = False, str(exc)
            ctx.revert_writes()
            for address, before in journal.items():
                if before is None:
                    del self._balances[address]
                else:
                    self._balances[address] = before
        finally:
            contract._ctx = None
            self._journal = None

        return self._record(
            sender,
            contract.address,
            method,
            ctx.gas_used,
            status,
            ctx.events if status else [],
            ret,
            error,
        )

    def call_view(self, contract: Contract, method: str, *args):
        """Free read-only call."""
        fn = getattr(contract, method, None)
        if fn is None or not getattr(fn, "_is_view", False):
            raise ChainError("method %r is not a view" % method)
        return fn(*args)

    def _record(self, sender, to, method, gas, status, events, ret, error=None):
        tx_hash = hashlib.sha256(
            b"%s:%s:%s:%d" % (sender.encode(), to.encode(), method.encode(), len(self.receipts))
        ).hexdigest()
        receipt = TransactionReceipt(
            tx_hash, sender, to, method, gas, status, list(events), ret, error
        )
        self.receipts.append(receipt)
        for event in receipt.events:
            self._event_index.add(event)
        self._pending.append(receipt)
        return receipt

    # ----- mempool ------------------------------------------------------------------

    def submit(
        self,
        sender: str,
        contract: Contract,
        method: str,
        *args,
        value: int = 0,
        fee: int = 0,
        gas_limit: int = 30_000_000,
    ) -> PendingTx:
        """Queue a transaction in the fee-ordered mempool.

        Nothing executes until :meth:`mine_round`; at capacity the
        mempool evicts its cheapest resident or raises
        :class:`~repro.errors.MempoolFullError` (see
        :mod:`repro.chain.mempool`).
        """
        if contract.address not in self.contracts:
            raise ChainError("contract is not deployed on this chain")
        return self.mempool.add(sender, contract, method, tuple(args), value, fee, gas_limit)

    def execute_batch(self, batch: list[PendingTx]) -> tuple[list, list]:
        """Execute one round's mined transactions in priority order.

        Returns ``(executed, dropped)``: ``executed`` pairs each
        transaction with its receipt (possibly a failed one); ``dropped``
        holds transactions an injected ``chain.transact`` drop removed
        from flight — they were *not* mined and left no receipt.
        """
        executed, dropped = [], []
        for tx in batch:
            try:
                receipt = self.transact(
                    tx.sender,
                    tx.contract,
                    tx.method,
                    *tx.args,
                    value=tx.value,
                    gas_limit=tx.gas_limit,
                )
            except TxDroppedError:
                dropped.append(tx)
                continue
            except TxRevertedError:
                executed.append((tx, self.receipts[-1]))
                continue
            executed.append((tx, receipt))
        return executed, dropped

    def mine_round(self, max_txs: int = 64) -> MiningRound:
        """Mine one round: pull up to ``max_txs`` fee-ordered transactions
        from the mempool, execute them, and seal a block if any receipt
        is waiting for one."""
        executed, dropped = self.execute_batch(self.mempool.take(max_txs))
        block = self.seal_block() if self._pending else None
        return MiningRound(block, executed, dropped)

    # ----- blocks -----------------------------------------------------------------

    def seal_block(self) -> Block:
        """Group the pending transactions into the next block."""
        head = self.blocks[-1]
        block = Block(head.number + 1, head.hash, tuple(r.tx_hash for r in self._pending))
        for receipt in self._pending:
            receipt.block_number = block.number
        self._pending = []
        self.blocks.append(block)
        return block

    def verify_chain(self) -> bool:
        """Check block hash linkage (the tamper-resistance assumption)."""
        genesis = self.blocks[0]
        if genesis.number != 0 or genesis.parent_hash != "0" * 64:
            return False
        for prev, block in zip(self.blocks, self.blocks[1:]):
            if block.parent_hash != prev.hash or block.number != prev.number + 1:
                return False
        return True

    def total_balance(self) -> int:
        """Sum of every account and contract balance — the quantity the
        load simulator's conservation invariant holds constant."""
        return sum(self._balances.values())

    # ----- queries ------------------------------------------------------------------

    def query_events(
        self,
        name: str | None = None,
        address: str | None = None,
        where=None,
        **fields,
    ) -> list[Event]:
        """Filter the event log without hand-rolled receipt scans.

        Combines (AND semantics) any of: event ``name``, emitting contract
        ``address`` (a hex string or a deployed :class:`Contract`), exact
        ``field=value`` matches on event fields (``field=None`` also matches
        events without the field), and an arbitrary ``where(event) -> bool``
        predicate for anything richer::

            chain.query_events("Transfer", token_id=3)
            chain.query_events("Locked", address=arbiter, where=lambda e: e.get("amount") > 10**6)

        Events are returned in emission order across all successful
        transactions (reverted transactions log nothing).  A ``name`` with a
        ``field=value`` costs its hits, not the log: :class:`EventIndex`
        keeps a value table per queried ``(name, field)``.  Under a fault
        plan the ``chain.events`` site models event-delivery lag: a
        ``delay`` fault raises :class:`repro.errors.EventDelayError`
        (transient — re-query after backoff).
        """
        faults.check("chain.events")
        if address is not None and not isinstance(address, str):
            address = address.address  # a deployed Contract instance
        # Name, address and exact field filters are posting-list hits in
        # the emission-order index; only what they leave pays the predicate.
        hits = self._event_index.select(name, address, fields)
        return hits if where is None else [event for event in hits if where(event)]
