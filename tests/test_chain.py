"""Tests for the blockchain substrate: gas metering, atomicity, blocks,
and the fee-ordered mempool."""

import gc
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chain import Blockchain, Contract, Mempool, external, view
from repro.chain.blockchain import encode_calldata
from repro.chain.events import Event
from repro.chain.gas import DEFAULT_SCHEDULE
from repro.errors import ChainError, ContractError, MempoolFullError
from tests.chain_oracle import query_events_linear


class Counter(Contract):
    """Minimal test contract."""

    @external
    def increment(self, by: int = 1) -> int:
        value = (self._sload("count") or 0) + by
        self._sstore("count", value)
        self.emit("Incremented", value=value)
        return value

    @external
    def fail_after_write(self) -> None:
        self._sstore("count", 999)
        self.require(False, "always reverts")

    @external
    def pay_out(self, to: str, amount: int) -> None:
        self.transfer_out(to, amount)

    @view
    def count(self) -> int:
        return self._storage.get("count") or 0


class Refunder(Contract):
    """Pays out of what it was sent, then reverts."""

    @external
    def pay_then_fail(self, to: str, amount: int) -> None:
        self.transfer_out(to, amount)
        self.require(False, "reverts after paying")


class Logger(Contract):
    """Emits whatever it is handed, so a test can log what ``emit(**fields)``
    cannot spell: a repeated key, a missing one."""

    @external
    def log(self, name: str, fields) -> None:
        self._ctx.events.append(Event(self.address, name, tuple(fields)))


_EVENT_NAMES = st.sampled_from(["Minted", "Transfer"])
_FIELD_KEYS = st.sampled_from(["token_id", "to", "prev_ids"])
_FIELD_VALUES = st.one_of(
    st.integers(0, 3),
    st.none(),
    st.booleans(),  # True == 1 and hashes alike: both paths must agree on that too
    st.sampled_from(["0xa", "0xb"]),
    st.lists(st.integers(0, 2), max_size=2),  # unhashable, as prev_ids=[...] is
    st.tuples(st.integers(0, 1), st.lists(st.integers(0, 1), max_size=1)),  # unhashable inside
)
#: Up to four (key, value) pairs from three keys: repeats happen.
_EVENT_FIELDS = st.lists(st.tuples(_FIELD_KEYS, _FIELD_VALUES), max_size=4)


@pytest.fixture
def chain():
    return Blockchain()


@pytest.fixture
def deployed(chain):
    deployer = chain.create_account(funded=10**18)
    contract = Counter()
    chain.deploy(contract, deployer)
    return chain, deployer, contract


class TestAccounts:
    def test_create_and_fund(self, chain):
        a = chain.create_account(funded=100)
        assert chain.balance_of(a) == 100
        chain.faucet(a, 50)
        assert chain.balance_of(a) == 150
        assert chain.balance_of("0xnobody") == 0


class TestDeployment:
    def test_deploy_charges_code_deposit(self, deployed):
        chain, _, contract = deployed
        receipt = chain.receipts[0]
        expected = DEFAULT_SCHEDULE.deployment_cost(Counter().code_size())
        assert receipt.gas_used == expected
        assert receipt.gas_used > 50000
        assert contract.address in chain.contracts

    def test_dropped_chain_is_freed_without_the_collector(self):
        """Contracts refer to their chain weakly: chain -> contract -> chain
        would park every receipt and event until a collection."""
        gc.collect()
        gc.disable()
        try:
            chain = Blockchain()
            sender = chain.create_account(funded=10**9)
            contract = Counter()
            chain.deploy(contract, sender)
            chain.transact(sender, contract, "increment", 1)
            chain.submit(sender, contract, "increment", 2, fee=1)
            chain.mine_round()
            assert chain.call_view(contract, "count") == 3
            gone = weakref.ref(chain)
            del chain
            assert gone() is None
            assert gc.collect() == 0
        finally:
            gc.enable()
        # A contract that outlives its chain fails loudly, it does not
        # meter against nothing.
        with pytest.raises(ReferenceError):
            contract.schedule

    def test_transact_on_undeployed_contract(self, chain):
        sender = chain.create_account()
        with pytest.raises(ChainError):
            chain.transact(sender, Counter(), "increment")


class TestTransactions:
    def test_basic_call_and_event(self, deployed):
        chain, sender, contract = deployed
        receipt = chain.transact(sender, contract, "increment", 5)
        assert receipt.status
        assert receipt.return_value == 5
        assert chain.call_view(contract, "count") == 5
        events = chain.query_events("Incremented", address=contract, value=5)
        assert len(events) == 1 and events[0].get("value") == 5

    def test_query_events_filters(self, deployed):
        chain, sender, contract = deployed
        for amount in (1, 2, 3):
            chain.transact(sender, contract, "increment", amount)
        # The counter accumulates, so the emitted values are 1, 3, 6.
        assert len(chain.query_events("Incremented")) == 3
        # Exact field match and predicate compose with AND semantics.
        assert [e.get("value") for e in chain.query_events("Incremented", value=3)] == [3]
        big = chain.query_events("Incremented", where=lambda e: e.get("value") > 1)
        assert [e.get("value") for e in big] == [3, 6]
        assert chain.query_events("Incremented", address="0x" + "0" * 40) == []
        assert chain.query_events("NoSuchEvent") == []

    def test_query_events_index_matches_linear_oracle(self, deployed):
        chain, sender, contract = deployed
        # A second deployed contract so address narrowing has real work.
        other = Counter()
        chain.deploy(other, sender)
        for target, amount in ((contract, 1), (other, 2), (contract, 3), (other, 4)):
            chain.transact(sender, target, "increment", amount)
        queries = [
            {},
            {"name": "Incremented"},
            {"name": "NoSuchEvent"},
            {"address": contract},
            {"address": other.address},
            {"name": "Incremented", "address": contract},
            {"name": "Incremented", "value": 4},
            {"name": "Incremented", "where": lambda e: e.get("value") > 2},
            {"address": other, "where": lambda e: e.get("value") % 2 == 0},
            {"address": "0x" + "0" * 40},
        ]
        for kwargs in queries:
            assert chain.query_events(**kwargs) == query_events_linear(chain, **kwargs), kwargs

    def test_gas_components(self, deployed):
        chain, sender, contract = deployed
        receipt = chain.transact(sender, contract, "increment", 5)
        # tx base + calldata + cold sload + sstore set + log
        assert receipt.gas_used > 21000 + 2100 + 20000
        # Second call rewrites a nonzero slot: cheaper.
        receipt2 = chain.transact(sender, contract, "increment", 5)
        assert receipt2.gas_used < receipt.gas_used

    def test_revert_restores_state_atomically(self, deployed):
        chain, sender, contract = deployed
        chain.transact(sender, contract, "increment", 7)
        receipt = chain.transact(sender, contract, "fail_after_write")
        assert not receipt.status
        assert "always reverts" in receipt.error
        assert chain.call_view(contract, "count") == 7
        assert receipt.events == []

    def test_out_of_gas_reverts(self, deployed):
        chain, sender, contract = deployed
        receipt = chain.transact(sender, contract, "increment", 1, gas_limit=21001)
        assert not receipt.status
        assert chain.call_view(contract, "count") == 0

    def test_value_transfer_and_payout(self, deployed):
        chain, sender, contract = deployed
        recipient = chain.create_account()
        chain.transact(sender, contract, "increment", value=500)
        assert chain.balance_of(contract.address) == 500
        chain.transact(sender, contract, "pay_out", recipient, 300)
        assert chain.balance_of(recipient) == 300
        assert chain.balance_of(contract.address) == 200

    def test_value_reverts_with_tx(self, deployed):
        chain, sender, contract = deployed
        before = chain.balance_of(sender)
        receipt = chain.transact(sender, contract, "fail_after_write", value=100)
        assert not receipt.status
        assert chain.balance_of(sender) == before

    def test_revert_restores_exactly_the_balances_it_moved(self, deployed):
        """The value sent in and the payout both unwind, and an address the
        reverted payout credited first is left with no entry: the balance
        map is the one before the call."""
        chain, sender, _ = deployed
        contract = Refunder()
        chain.deploy(contract, sender)
        fresh = "0x" + "f" * 40
        before = dict(chain._balances)
        receipt = chain.transact(sender, contract, "pay_then_fail", fresh, 60, value=100)
        assert not receipt.status and "after paying" in receipt.error
        assert chain._balances == before and fresh not in chain._balances

    def test_view_is_free_and_guarded(self, deployed):
        chain, _, contract = deployed
        before = len(chain.receipts)
        assert chain.call_view(contract, "count") == 0
        assert len(chain.receipts) == before
        with pytest.raises(ChainError):
            chain.call_view(contract, "increment")

    def test_external_requires_transaction(self, deployed):
        _, _, contract = deployed
        with pytest.raises(ContractError):
            contract.increment(1)

    def test_unknown_method_rejected(self, deployed):
        chain, sender, contract = deployed
        with pytest.raises(ChainError):
            chain.transact(sender, contract, "count")  # view, not external
        with pytest.raises(ChainError):
            chain.transact(sender, contract, "missing")


class TestBlocks:
    def test_seal_and_verify(self, deployed):
        chain, sender, contract = deployed
        chain.transact(sender, contract, "increment")
        block = chain.seal_block()
        assert block.number == 1
        assert chain.verify_chain()
        receipt = chain.receipts[-1]
        assert receipt.block_number == 1

    def test_tampering_detected(self, deployed):
        chain, sender, contract = deployed
        chain.transact(sender, contract, "increment")
        chain.seal_block()
        chain.transact(sender, contract, "increment")
        chain.seal_block()
        from repro.chain.blockchain import Block

        genuine = chain.blocks[1]
        chain.blocks[1] = Block(1, "f" * 64, genuine.tx_hashes)
        assert not chain.verify_chain()
        # A renumbered block keeps its parent link but breaks the height.
        chain.blocks[1] = Block(7, genuine.parent_hash, genuine.tx_hashes)
        assert not chain.verify_chain()
        chain.blocks[1] = genuine
        assert chain.verify_chain()


class TestMempool:
    def test_fee_order_fifo_among_ties(self, deployed):
        chain, sender, contract = deployed
        chain.submit(sender, contract, "increment", 1, fee=5)
        chain.submit(sender, contract, "increment", 2, fee=9)
        chain.submit(sender, contract, "increment", 3, fee=5)
        order = [tx.args[0] for tx in (chain.mempool.pop(), chain.mempool.pop(), chain.mempool.pop())]
        assert order == [2, 1, 3]  # highest fee first, then admission order

    def test_capacity_evicts_cheapest_latest(self, deployed):
        chain, sender, contract = deployed
        pool = chain.mempool
        pool.capacity = 3
        for i, offered in enumerate((4, 2, 7)):
            chain.submit(sender, contract, "increment", i, fee=offered)
        # Below/at the floor: rejected, nothing evicted.
        with pytest.raises(MempoolFullError):
            chain.submit(sender, contract, "increment", 99, fee=2)
        assert pool.rejected == 1 and len(pool) == 3
        # Beats the floor: the cheapest resident (fee 2) is evicted.
        chain.submit(sender, contract, "increment", 3, fee=3)
        assert pool.evicted == 1
        assert [tx.args[0] for tx in pool.drain_order()] == [2, 0, 3]
        assert [tx.args[0] for tx in pool.drain_evicted()] == [1]

    def test_eviction_tie_breaks_against_latest_arrival(self):
        pool = Mempool(capacity=2)
        first = pool.add("0xa", object(), "m", fee=1)
        second = pool.add("0xb", object(), "m", fee=1)
        pool.add("0xc", object(), "m", fee=2)
        evicted = pool.drain_evicted()
        assert evicted == [second] and pool.fee_floor() == 1
        assert first.seq in [tx.seq for tx in pool.drain_order()]

    def test_eviction_heap_is_bounded_by_the_live_set(self):
        """Mined transactions must not stay in the eviction heap until the
        pool next fills: on a chain that never fills it that is one tuple
        a transaction, for the life of the chain."""
        pool = Mempool(capacity=64)
        for burst in range(500):
            for i in range(8):
                pool.add("0xa", object(), "m", fee=(burst * 7 + i * 3) % 11)
            assert len(pool.take(6)) == 6
            assert len(pool._evict) <= 2 * len(pool) + 1
            if len(pool) > 40:
                pool.take(len(pool))
                assert pool._evict == []
        assert pool.admitted == 4000 and pool.evicted == 0

    def test_eviction_order_survives_heap_rebuilds(self):
        """Under pressure the victims are still cheapest-first, latest
        arrival first among equals, whatever was mined in between."""
        pool = Mempool(capacity=12)
        for i in range(60):  # churn: rebuilds happen here
            pool.add("0xa", object(), "m", fee=i % 5)
            if len(pool) > 6:
                pool.take(3)
        assert len(pool._evict) <= 2 * len(pool) + 1
        while len(pool) < pool.capacity:
            pool.add("0xa", object(), "m", fee=len(pool) % 4)
        resident = pool.drain_order()
        expected = sorted(resident, key=lambda tx: (tx.fee, -tx.seq))[:5]
        for _ in range(5):
            pool.add("0xb", object(), "m", fee=100)
        assert pool.drain_evicted() == expected

    def test_undeployed_contract_rejected_at_submit(self, chain):
        sender = chain.create_account()
        with pytest.raises(ChainError):
            chain.submit(sender, Counter(), "increment")

    def test_mine_round_executes_and_seals(self, deployed):
        chain, sender, contract = deployed
        for i in range(5):
            chain.submit(sender, contract, "increment", 1, fee=i)
        round_ = chain.mine_round(max_txs=3)
        # The round cap takes the three highest bidders, in fee order.
        assert [tx.fee for tx, _receipt in round_.executed] == [4, 3, 2]
        assert len(chain.mempool) == 2
        assert chain.call_view(contract, "count") == 3
        assert round_.block.number == 1 and round_.block is chain.blocks[-1]
        assert round_.block.tx_hashes[-3:] == tuple(r.tx_hash for _tx, r in round_.executed)
        # Transactions over the cap keep their priority for the next round.
        round2 = chain.mine_round(max_txs=3)
        assert [tx.fee for tx, _receipt in round2.executed] == [1, 0] and not chain.mempool
        assert round2.block.number == 2
        # Nothing pending: no empty block is sealed.
        assert chain.mine_round(max_txs=3).block is None and len(chain.blocks) == 3
        assert chain.verify_chain()


class TestLanes:
    """What the PR-10 lane tests checked that still holds on the one
    chain (the class keeps its name so the test ids stay stable)."""

    def test_total_balance_tracks_funding(self):
        chain = Blockchain()
        for amount in (5, 10, 20):
            chain.create_account(funded=amount)
        assert chain.total_balance() == 35

    @given(
        plan=st.lists(
            st.tuples(st.integers(0, 7), st.integers(1, 6), st.booleans()),
            min_size=1,
            max_size=40,
        ),
        round_cap=st.sampled_from([1, 2, 5]),
    )
    @settings(max_examples=30, deadline=None)
    def test_event_index_matches_linear_oracle_across_lanes(self, plan, round_cap):
        """The O(1) EventIndex must agree with the receipt-scan oracle on
        event streams produced by mempool-reordered mining: fees shuffle
        execution order, the round cap shuffles which block a transaction
        lands in, and the two query paths must still agree on every
        filter."""
        chain = Blockchain(mempool_capacity=64)
        contract, other = Counter(), Counter()
        deployer = chain.create_account(funded=10**9)
        chain.deploy(contract, deployer)
        chain.deploy(other, deployer)
        senders = [chain.create_account(funded=10**9) for _ in range(8)]
        for sender_index, offered_fee, use_other in plan:
            target = other if use_other else contract
            chain.submit(senders[sender_index], target, "increment", 1, fee=offered_fee)
            if len(chain.mempool) >= 6:
                chain.mine_round(max_txs=round_cap)
        while chain.mempool:
            chain.mine_round(max_txs=round_cap)
        queries = [
            {},
            {"name": "Incremented"},
            {"name": "NoSuchEvent"},
            {"address": contract},
            {"address": other},
            {"name": "Incremented", "address": other},
            {"name": "Incremented", "value": 2},
            {"name": "Incremented", "where": lambda e: e.get("value") % 2 == 1},
        ]
        for kwargs in queries:
            assert chain.query_events(**kwargs) == query_events_linear(chain, **kwargs), kwargs
        assert chain.verify_chain()

    @given(
        steps=st.lists(
            st.one_of(
                st.tuples(st.just("emit"), st.integers(0, 1), _EVENT_NAMES, _EVENT_FIELDS),
                st.tuples(
                    st.just("query"),
                    st.one_of(st.none(), st.integers(0, 1)),
                    st.one_of(st.none(), _EVENT_NAMES),
                    st.dictionaries(_FIELD_KEYS, _FIELD_VALUES, max_size=2),
                ),
            ),
            min_size=1,
            max_size=40,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_field_postings_match_linear_oracle_between_emits(self, steps):
        """``field=value`` filters are served from per-(name, field) tables
        that the first query builds and later ones extend: interleave emits
        and queries so every table is read stale, and log what a table
        must not mistake — a field that is missing, ``None``, repeated
        (the first occurrence counts), unhashable — alone, in pairs and
        under an address."""
        chain = Blockchain()
        sender = chain.create_account(funded=10**9)
        loggers = [Logger(), Logger()]
        for logger in loggers:
            chain.deploy(logger, sender)
        asked = []
        for kind, which, name, fields in steps:
            if kind == "emit":
                chain.transact(sender, loggers[which], "log", name, fields)
                continue
            kwargs = dict(fields)
            if name is not None:
                kwargs["name"] = name
            if which is not None:
                kwargs["address"] = loggers[which]
            asked.append(kwargs)
            assert chain.query_events(**kwargs) == query_events_linear(chain, **kwargs), kwargs
        for kwargs in asked:  # again, now that every table lags the whole log
            assert chain.query_events(**kwargs) == query_events_linear(chain, **kwargs), kwargs

    def test_field_query_costs_its_hits_not_the_log(self, monkeypatch):
        chain = Blockchain()
        sender = chain.create_account(funded=10**9)
        logger = Logger()
        chain.deploy(logger, sender)
        for token_id in range(5_000):
            fields = (("token_id", token_id), ("to", sender))
            chain.transact(sender, logger, "log", "Minted", fields)
        assert len(chain.query_events("Minted", token_id=7)) == 1  # the first query reads the log
        chain.transact(sender, logger, "log", "Minted", (("token_id", 4_242), ("to", "0xb")))
        calls = []
        plain_get = Event.get

        def counting_get(event, key, default=None):
            calls.append(key)
            return plain_get(event, key, default)

        monkeypatch.setattr(Event, "get", counting_get)
        hits = chain.query_events("Minted", token_id=4_242)
        assert [event.get("to") for event in hits] == [sender, "0xb"]
        # One read of the event emitted since, nothing per event of the log.
        assert len(calls) <= 1 + 2 * len(hits)
        calls.clear()
        assert len(chain.query_events("Minted", token_id=4_242, to="0xb")) == 1
        assert len(calls) <= 2 * len(hits)


class TestCalldata:
    def test_encoding_is_deterministic_and_type_aware(self):
        a = encode_calldata("m", (1, "abc", b"\x01", (1, 2), None, True))
        b = encode_calldata("m", (1, "abc", b"\x01", (1, 2), None, True))
        assert a == b
        assert encode_calldata("m", (1,)) != encode_calldata("m", (2,))
        with pytest.raises(ChainError):
            encode_calldata("m", (object(),))

    def test_calldata_cost(self):
        assert DEFAULT_SCHEDULE.calldata_cost(b"\x00\x01") == 4 + 16
