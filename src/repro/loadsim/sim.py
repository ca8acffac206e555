"""The population-scale load simulator.

One :class:`LoadSimulator` run drives a seeded operation stream (see
:mod:`repro.loadsim.traffic`) against the full stack: DHT storage with
node churn, the fee-ordered mempool, block sealing, the ERC-721
data-token contract and the hash-locked escrow arbiter — optionally
under a fault profile — while the :class:`InvariantChecker` diffs a
shadow ledger against chain state after every mining round.

Determinism contract: every *decision* (operation kinds, users, prices,
fees, churn, faults) is an integer SHA-256 draw from the run seed, so
two runs with the same :class:`SimConfig` produce byte-identical chains
— :attr:`SimReport.digest` is the proof.  Wall-clock time is measured
(tx/s, query latency percentiles) but never consulted.

Trades are a client-side state machine (lock -> open -> transfer, with
refund as the abort path) advanced only by mined receipts; a dropped,
reverted or evicted transaction is re-offered as it was, one fee step
up, within a bounded client budget.  After the last
operation the run *drains*: faults are uninstalled and mining continues
until the mempool is empty and every trade is terminal, so bounded
client retries plus a clean drain guarantee termination under any
profile — which is why the ``soak`` profile may keep budgets unbounded.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field, fields

from repro import faults, telemetry
from repro.chain import Blockchain, PendingTx
from repro.contracts.arbiter import ZKCPArbiterContract
from repro.contracts.erc721 import DataTokenContract
from repro.errors import (
    EventDelayError,
    MempoolFullError,
    ReproError,
    StorageError,
    TransientError,
)
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan
from repro.loadsim.invariants import InvariantChecker
from repro.loadsim.population import Population
from repro.loadsim.traffic import TrafficMix, sim_draw, skewed_draw
from repro.primitives.hashing import field_hash
from repro.storage.dht import DHTNetwork
from repro.telemetry import ledger as _ledger

REPAIR_EVERY = 4  #: churn events between anti-entropy passes
FUNDS = 1_000_000  #: faucet per materialised user
PRICE_MAX = 1_000  #: prices and fees are drawn from [1, max]
FEE_MAX = 16
MAX_CLIENT_RETRIES = 4
MAX_DRAIN_ROUNDS = 10_000
PREIMAGE_POOL = 64  #: distinct hash-lock preimages (Poseidon is slow)
#: Report values the artifact rounds, with their decimal places.
_ROUNDED = {"duration_s": 6, "tx_per_sec": 3, "abort_rate": 6, "audit_p50_us": 3, "audit_p99_us": 3}


@dataclass(frozen=True)
class SimConfig:
    """Everything a run depends on; two equal configs replay identically."""

    users: int = 1_000
    ops: int = 2_000
    mix: str = "mixed"
    seed: int = 20220707
    mempool_capacity: int = 4096
    block_txs: int = 256  #: per mining round
    ops_per_round: int = 128  #: submissions between mining rounds
    dht_nodes: int = 16
    replication: int = 3
    churn_every: int = 500  #: ops between DHT join/leave events (0 = off)
    fault_profile: str = "off"
    fault_seed: int = 0  #: 0 = derive from ``seed``
    fault_epoch_ops: int = 2_000  #: re-seed the injector every N ops (0 = off)

    def resolved_mix(self) -> TrafficMix:
        return TrafficMix.parse(self.mix)

    def resolved_fault_seed(self) -> int:
        return self.fault_seed or self.seed


@dataclass
class SimReport:
    """What one run produced; :meth:`to_dict` is the artifact schema."""

    config: SimConfig
    digest: str = ""
    duration_s: float = 0.0
    mined: int = 0  #: transactions with a receipt (success or revert)
    reverted: int = 0
    dropped: int = 0  #: in-flight losses (fault plane)
    shed: int = 0  #: operations abandoned at admission (mempool full)
    mints: int = 0
    trades_started: int = 0
    trades_completed: int = 0
    refunds: int = 0
    aborts: int = 0  #: trades that died before locking anything
    audits: int = 0
    audit_p50_us: float = 0.0
    audit_p99_us: float = 0.0
    audit_misses: int = 0  #: provenance/content reads that failed all retries
    churn_events: int = 0
    repaired: int = 0  #: replicas added+removed by anti-entropy passes
    mempool_evicted: int = 0
    mempool_rejected: int = 0
    faults_injected: int = 0
    users_materialized: int = 0
    blocks: int = 0
    rounds: int = 0
    violations: list = field(default_factory=list)

    @property
    def tx_per_sec(self) -> float:
        return self.mined / self.duration_s if self.duration_s > 0 else 0.0

    @property
    def abort_rate(self) -> float:
        started = self.trades_started
        return (self.refunds + self.aborts) / started if started else 0.0

    def to_dict(self) -> dict:
        cfg, mix = self.config, self.config.resolved_mix()
        payload = {
            "schema": "repro.loadsim.report/2",
            "users": cfg.users,
            "ops": cfg.ops,
            "mix": mix.spec(),
            "mix_name": mix.name,
            "seed": cfg.seed,
            "fault_profile": cfg.fault_profile,
            "fault_seed": cfg.resolved_fault_seed(),
        }
        payload.update((f.name, getattr(self, f.name)) for f in fields(self) if f.name != "config")
        payload.update(
            tx_per_sec=self.tx_per_sec,
            abort_rate=self.abort_rate,
            violations=list(self.violations),
        )
        for name, places in _ROUNDED.items():
            payload[name] = round(payload[name], places)
        return payload


class _Trade:
    """One buyer/seller/token exchange; the transaction in flight is its state."""

    __slots__ = ("token_id", "seller", "buyer", "preimage", "deal_id")

    def __init__(self, token_id, seller, buyer, preimage):
        self.token_id = token_id
        self.seller = seller
        self.buyer = buyer
        self.preimage = preimage
        self.deal_id = None


class LoadSimulator:
    """Drives one seeded run; see the module docstring for the contract."""

    def __init__(self, config: SimConfig) -> None:
        if config.users < 2:
            raise ReproError("a marketplace needs at least two users")
        if config.ops < 1:
            raise ReproError("nothing to simulate with ops < 1")
        self.config = config
        self.mix = config.resolved_mix()
        self.chain = Blockchain(mempool_capacity=config.mempool_capacity)
        self.population = Population(self.chain, config.users, FUNDS)
        self.net = DHTNetwork(
            ["seed-%d" % i for i in range(config.dht_nodes)], replication=config.replication
        )
        operator = self.chain.create_account()
        self.token = DataTokenContract()
        self.arbiter = ZKCPArbiterContract()
        self.chain.deploy(self.token, operator)
        self.chain.deploy(self.arbiter, operator)
        # Deployment receipts predate the checker's shadow ledger on
        # purpose: it replays from receipt 0 anyway.
        self.checker = InvariantChecker(self.chain, self.token, self.arbiter, self.population)
        # Hash-lock pool: Poseidon at ~0.5 ms/hash would dominate a
        # 10^5-op run, so trades draw from a fixed pool of preimages
        # whose client-side hashes are computed once here.  (The
        # contract still hashes on every open(); that cost is the
        # workload, this is just the client not re-deriving constants.)
        self._preimages = [
            sim_draw(config.seed, "preimage", i, 1 << 62) + 1
            for i in range(PREIMAGE_POOL)
        ]
        self._lock_hashes = [field_hash(p) for p in self._preimages]
        #: tx.seq -> (trade or None for a mint, retries so far) for every
        #: in-flight submission; the transaction itself says what it does.
        self._inflight: dict[int, tuple] = {}
        #: Sim-side token registry: token_id -> (owner, uri); owner kept
        #: current from mined Transfer receipts (the *client's* view).
        self._tokens: dict[int, tuple] = {}
        self._token_ids: list[int] = []
        #: Tokens with a live trade: a client never offers a token that
        #: is already mid-exchange (the market is serialised per token,
        #: so a seller cannot over-sell while a transfer is in flight).
        self._busy: set[int] = set()
        self._audit_lat_us: list[float] = []
        self.report = SimReport(config)
        self._round_countdown = config.ops_per_round
        self._draining = False

    # ----- deterministic draws ------------------------------------------------

    def _draw(self, tag: str, sequence: int, bound: int) -> int:
        return sim_draw(self.config.seed, tag, sequence, bound)

    def _user(self, tag: str, sequence: int) -> int:
        return skewed_draw(self.config.seed, tag, sequence, self.config.users)

    def _fee(self, tag: str, sequence: int) -> int:
        return 1 + self._draw("fee." + tag, sequence, FEE_MAX)

    # ----- submission with backpressure ---------------------------------------

    def _submit(self, trade, sender, contract, method, *args, value=0, fee=1, retries=0) -> bool:
        """Submit one transaction, mining for space when the pool is full.

        Admission can fail (pool full of higher-fee residents); each
        failed attempt mines a round to free capacity and re-offers at
        a bumped fee.  Returns False only if the mempool stays saturated
        for many rounds, which a finite population cannot sustain.
        """
        for attempt in range(32):
            try:
                tx = self.chain.submit(
                    sender, contract, method, *args, value=value, fee=fee + attempt
                )
            except MempoolFullError:
                self._mine_round()
                continue
            self._inflight[tx.seq] = (trade, retries)
            return True
        return False

    # ----- operations ----------------------------------------------------------

    def _op_mint(self, op_seq: int) -> None:
        seller = self.population.account(self._user("mint.user", op_seq))
        payload = b"dataset:%d:%d" % (self.config.seed, op_seq)
        try:
            uri = self.net.put(payload)
        except StorageError:
            self.report.shed += 1  # every replica write lost; give up on this op
            return
        commitment = self._draw("commitment", op_seq, 1 << 62)
        if not self._submit(
            None, seller, self.token, "mint", uri, commitment, fee=self._fee("mint", op_seq)
        ):
            self.report.shed += 1

    def _op_trade(self, op_seq: int) -> None:
        if not self._token_ids:
            self._op_mint(op_seq)  # nothing to trade yet; seed the market
            return
        # Skewed pick, then a bounded linear probe past busy tokens.
        start = skewed_draw(self.config.seed, "trade.token", op_seq, len(self._token_ids))
        token_id = None
        for offset in range(min(len(self._token_ids), 16)):
            candidate = self._token_ids[(start + offset) % len(self._token_ids)]
            if candidate not in self._busy:
                token_id = candidate
                break
        if token_id is None:
            self._op_mint(op_seq)  # whole neighbourhood mid-trade; add supply
            return
        owner, _uri = self._tokens[token_id]
        buyer_index = self._user("trade.buyer", op_seq)
        buyer = self.population.account(buyer_index)
        if buyer == owner:
            buyer = self.population.account((buyer_index + 1) % self.config.users)
        pool_index = self._draw("trade.preimage", op_seq, PREIMAGE_POOL)
        trade = _Trade(token_id, owner, buyer, self._preimages[pool_index])
        self.report.trades_started += 1
        self._busy.add(token_id)
        if not self._submit(
            trade, buyer, self.arbiter, "lock", owner, self._lock_hashes[pool_index],
            value=1 + self._draw("trade.price", op_seq, PRICE_MAX),
            fee=self._fee("lock", op_seq),
        ):
            self.report.shed += 1
            self.report.aborts += 1
            self._busy.discard(token_id)

    def _op_audit(self, op_seq: int) -> None:
        if not self._token_ids:
            return
        token_id = self._token_ids[
            skewed_draw(self.config.seed, "audit.token", op_seq, len(self._token_ids))
        ]
        self.report.audits += 1
        started = time.perf_counter()
        hits = None
        for _attempt in range(MAX_CLIENT_RETRIES + 1):
            try:
                hits = self.chain.query_events("Minted", token_id=token_id)
                hits += self.chain.query_events("Transfer", token_id=token_id)
                break
            except EventDelayError:
                continue  # event log lagging; re-query
        self._audit_lat_us.append((time.perf_counter() - started) * 1e6)
        if hits is None:
            self.report.audit_misses += 1
            return
        # Content audit: the token's bytes must still be fetchable.
        _owner, uri = self._tokens[token_id]
        for _attempt in range(MAX_CLIENT_RETRIES + 1):
            try:
                self.net.get(uri)
                return
            except (StorageError, TransientError):
                continue
        self.report.audit_misses += 1

    # ----- mining and state-machine advancement --------------------------------

    def _mine_round(self) -> None:
        # Evicted submissions never mine; their owners re-offer them at
        # a bumped fee (or abort) before the round executes.
        for tx in self.chain.mempool.drain_evicted():
            intent = self._inflight.pop(tx.seq, None)
            if intent is not None:
                self._retry(tx, intent)
        round_ = self.chain.mine_round(self.config.block_txs)
        self.report.rounds += 1
        for tx, receipt in round_.executed:
            self.report.mined += 1
            if not receipt.status:
                self.report.reverted += 1
            self._advance(tx, receipt)
        for tx in round_.dropped:
            self.report.dropped += 1
            self._retry(tx, self._inflight.pop(tx.seq))
        self.checker.check_round()

    def _advance(self, tx: PendingTx, receipt) -> None:
        intent = self._inflight.pop(tx.seq, None)
        if intent is None:
            return
        if not receipt.status:
            self._retry(tx, intent)
            return
        trade = intent[0]
        if tx.method == "mint":
            self._tokens[receipt.return_value] = (tx.sender, tx.args[0])
            self._token_ids.append(receipt.return_value)
            self.report.mints += 1
        elif tx.method == "lock":
            trade.deal_id = receipt.return_value
            self._submit(
                trade, trade.seller, self.arbiter, "open", trade.deal_id, trade.preimage,
                fee=self._fee("open", trade.deal_id),
            )
        elif tx.method == "open":
            self._submit(
                trade, trade.seller, self.token, "transfer_from",
                trade.seller, trade.buyer, trade.token_id,
                fee=self._fee("transfer", trade.deal_id),
            )
        else:
            self._busy.discard(trade.token_id)
            if tx.method == "transfer_from":
                _owner, uri = self._tokens[trade.token_id]
                self._tokens[trade.token_id] = (trade.buyer, uri)
                self.report.trades_completed += 1
            else:
                self.report.refunds += 1

    def _retry(self, tx: PendingTx, intent: tuple) -> None:
        """Re-offer a dropped, reverted or evicted transaction as it was,
        one fee step up.  Past the client budget (unbounded while
        draining) a lock aborts, an open becomes the buyer's refund and a
        mint is shed; a transfer or refund settles escrow, so it is
        re-offered until it lands (the drain runs fault-free)."""
        trade, retries = intent
        if retries >= MAX_CLIENT_RETRIES and not self._draining:
            if tx.method == "lock":  # nothing escrowed yet; clean abort
                self._busy.discard(trade.token_id)
                self.report.aborts += 1
                return
            if tx.method == "open":  # the seller could not deliver
                self._submit(trade, trade.buyer, self.arbiter, "refund", trade.deal_id,
                             fee=tx.fee + 1)
                return
            if tx.method == "mint":
                self.report.shed += 1
                return
        args = tx.args
        if tx.method == "mint":  # a fresh commitment for the re-offered mint
            args = (args[0], self._draw("commitment.retry", tx.seq, 1 << 62))
        self._submit(trade, tx.sender, tx.contract, tx.method, *args,
                     value=tx.value, fee=tx.fee + 1, retries=retries + 1)

    # ----- churn and fault epochs ----------------------------------------------

    def _churn(self, churn_seq: int) -> None:
        self.report.churn_events += 1
        names = sorted(self.net.nodes)
        low = self.config.replication + 1
        high = max(low + 1, 2 * self.config.dht_nodes)
        if len(names) <= low:
            joining = True
        elif len(names) >= high:
            joining = False
        else:
            joining = self._draw("churn.dir", churn_seq, 2) == 0
        if joining:
            self.net.join("churn-%d" % churn_seq)
        else:
            self.net.leave(names[self._draw("churn.victim", churn_seq, len(names))])
        if self.report.churn_events % REPAIR_EVERY == 0:
            added, removed = self.net.repair()
            self.report.repaired += added + removed

    def _epoch_injector(self, epoch: int) -> FaultInjector | None:
        if self.config.fault_profile in ("", "off"):
            return None
        base = self.config.resolved_fault_seed()
        payload = b"zkdet-loadsim-epoch:%d:%d" % (base, epoch)
        epoch_seed = int.from_bytes(hashlib.sha256(payload).digest()[:8], "big")
        plan = FaultPlan.profile(self.config.fault_profile, epoch_seed)
        return FaultInjector(plan)

    # ----- the run --------------------------------------------------------------

    def run(self) -> SimReport:
        cfg = self.config
        #: Every fault the run's epoch injectors drew, in draw order.
        drawn: list = []
        with _ledger.begin("loadsim.run") as recorder, telemetry.span(
            "loadsim.run", ops=cfg.ops, seed=cfg.seed
        ) as root:
            recorder.update(span=root)
            started = time.perf_counter()
            ambient = faults.install(self._epoch_injector(0))
            try:
                for op_seq in range(cfg.ops):
                    if (
                        cfg.fault_epoch_ops
                        and op_seq
                        and op_seq % cfg.fault_epoch_ops == 0
                    ):
                        # Rotate the injector so bounded profile budgets keep
                        # biting across a long run; keep what the old one drew.
                        old = faults.install(
                            self._epoch_injector(op_seq // cfg.fault_epoch_ops)
                        )
                        drawn += old.log if old is not None else ()
                    if cfg.churn_every and op_seq and op_seq % cfg.churn_every == 0:
                        self._churn(op_seq // cfg.churn_every)
                    op = self.mix.draw_op(cfg.seed, op_seq)
                    if op == "mint":
                        self._op_mint(op_seq)
                    elif op == "trade":
                        self._op_trade(op_seq)
                    else:
                        self._op_audit(op_seq)
                    self._round_countdown -= 1
                    if self._round_countdown <= 0:
                        self._mine_round()
                        self._round_countdown = cfg.ops_per_round
                # Drain: faults off, retries unbounded, run to quiescence.
                old = faults.install(None)
                drawn += old.log if old is not None else ()
                self._draining = True
                drain_rounds = 0
                while (
                    self.chain.mempool or self._inflight
                ) and drain_rounds < MAX_DRAIN_ROUNDS:
                    self._mine_round()
                    drain_rounds += 1
                if self.chain.mempool or self._inflight:
                    self.checker.violations.append(
                        "drain did not converge after %d rounds (%d in mempool, %d in flight)"
                        % (drain_rounds, len(self.chain.mempool), len(self._inflight))
                    )
                self.checker.check_final()
            finally:
                # Non-None only when the run raised inside a fault epoch.
                current = faults.install(ambient)
                drawn += current.log if current is not None else ()
                recorder.update(faults=drawn)
            self.report.duration_s = time.perf_counter() - started
            self.report.faults_injected = len(drawn)
            self.report.mempool_evicted = self.chain.mempool.evicted
            self.report.mempool_rejected = self.chain.mempool.rejected
            self.report.users_materialized = self.population.materialized
            self.report.blocks = len(self.chain.blocks)
            self.report.violations = list(self.checker.violations)
            if self._audit_lat_us:
                ordered = sorted(self._audit_lat_us)
                self.report.audit_p50_us = ordered[len(ordered) // 2]
                self.report.audit_p99_us = ordered[min(len(ordered) - 1, len(ordered) * 99 // 100)]
            self.report.digest = self._digest()
            recorder.update(**self.report.to_dict())
        return self.report

    def _digest(self) -> str:
        """SHA-256 over everything decision-derived: receipts, events,
        blocks, final balances and final ownership.  Identical across
        replays of the same config; wall-clock never enters."""
        h = hashlib.sha256()
        for receipt in self.chain.receipts:
            h.update(
                b"r|%s|%s|%d|%d|%s"
                % (
                    receipt.tx_hash.encode(),
                    receipt.method.encode(),
                    int(receipt.status),
                    receipt.block_number if receipt.block_number is not None else -1,
                    (receipt.error or "").encode(),
                )
            )
            for event in receipt.events:
                h.update(b"e|%s|%s" % (event.name.encode(), repr(event.fields).encode()))
        for block in self.chain.blocks:
            h.update(b"b|%s" % block.hash.encode())
        for address in sorted(self.chain._balances):
            h.update(b"a|%s|%d" % (address.encode(), self.chain._balances[address]))
        for token_id in sorted(self._tokens):
            owner, uri = self._tokens[token_id]
            h.update(b"t|%d|%s|%s" % (token_id, owner.encode(), uri.encode()))
        return h.hexdigest()


def run_sim(**overrides) -> SimReport:
    """One-call convenience: build a config, run it, return the report."""
    return LoadSimulator(SimConfig(**overrides)).run()
