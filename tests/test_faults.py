"""The fault-injection plane and the chaos suite.

Fast, unmarked tests cover the plane itself: seeded draws, plan parsing,
typed injection at every site family, retry/backoff arithmetic, and the
chain/storage instrumentation semantics (a dropped transaction leaves no
trace; a reverted one leaves a failed receipt).

The four exchange drivers — key-secure, ZKCP, FairSwap and the node —
then run end to end under faults, and every run must satisfy the safety
envelope from the paper's fairness theorems, stated once in
``tests/exchange_invariants.py``:

* ``TestEveryEdge`` fails every message channel and every transaction
  method a clean run of each driver touches for good, one at a time;
* ``TestReplayGolden`` pins one seeded chaos run per driver to a digest
  of its fault log, receipts and reasons;
* the ``chaos``-marked classes sweep seeded :class:`~repro.faults.FaultPlan`
  profiles and check that the same seed replays bit-identically.

Every key-secure and node run also checks that no secret left the seller
(:func:`~tests.exchange_invariants.assert_secrets_hidden`), and
``TestSecretsHidden`` shows that ZKCP and FairSwap fail that check.
"""

import asyncio
import dataclasses
import hashlib
from contextlib import contextmanager
from dataclasses import dataclass

import pytest

from repro import faults, telemetry
from repro.chain import Blockchain
from repro.contracts import (
    KeySecureArbiterContract,
    PlonkVerifierContract,
    ZKCPArbiterContract,
)
from repro.contracts.fairswap import FairSwapContract
from repro.core.exchange import Buyer, KeySecureExchange, Seller, key_negotiation_keys
from repro.core.fairswap import FairSwapExchange, FairSwapListing
from repro.core.tokens import DataAsset
from repro.core.zkcp import ZKCPExchange
from repro.errors import (
    DeadlineExceededError,
    ExchangeAbortedError,
    ReproError,
    EventDelayError,
    MessageLossError,
    MessageStallError,
    RetryExhaustedError,
    StorageError,
    StorageCorruptionError,
    StorageTimeoutError,
    StorageUnavailableError,
    TransientError,
    TxDroppedError,
    TxRevertedError,
)
from repro.faults import (
    PPM,
    PROFILES,
    FaultInjector,
    FaultPlan,
    FaultRule,
    RetryPolicy,
    draw,
)
from repro.faults.retry import MAX_DELAY_US
from repro.field.fr import MODULUS as R
from repro.service import ExchangeRequest, MarketplaceNode, NodeConfig
from repro.storage import ContentStore
from repro.storage.dht import DHTNetwork
from tests.exchange_invariants import (
    Published,
    assert_safe_end,
    assert_secrets_hidden,
    asset_secrets,
    publishing,
)


def _always(site, kind, **kw):
    return FaultRule(site=site, kind=kind, probability_ppm=PPM, **kw)


def _plan(*rules, seed=1):
    return FaultPlan(seed=seed, rules=tuple(rules), name="test")


# ---------------------------------------------------------------------------
# The deterministic draw
# ---------------------------------------------------------------------------


class TestDraw:
    def test_range_and_stability(self):
        values = [draw(7, 0, i, "storage.get") for i in range(200)]
        assert all(0 <= v < PPM for v in values)
        assert values == [draw(7, 0, i, "storage.get") for i in range(200)]

    def test_streams_are_independent(self):
        by_seed = [draw(s, 0, 0, "chain.transact") for s in range(50)]
        by_rule = [draw(0, r, 0, "chain.transact") for r in range(50)]
        by_site = [draw(0, 0, 0, "site-%d" % i) for i in range(50)]
        assert len(set(by_seed)) > 40
        assert len(set(by_rule)) > 40
        assert len(set(by_site)) > 40


class TestFaultPlan:
    def test_rule_validation(self):
        with pytest.raises(ReproError):
            FaultRule(site="x", kind="explode", probability_ppm=1)
        with pytest.raises(ReproError):
            FaultRule(site="x", kind="loss", probability_ppm=PPM + 1)
        with pytest.raises(ReproError):
            FaultRule(site="x", kind="loss", probability_ppm=-1)
        with pytest.raises(ReproError):
            FaultRule(site="x", kind="delay", probability_ppm=1, delay_us=-5)

    def test_rule_glob_matching(self):
        rule = _always("exchange.msg.*", "loss")
        assert rule.matches("exchange.msg.key")
        assert rule.matches("exchange.msg.validation")
        assert not rule.matches("chain.transact")

    def test_profiles_exist_and_parse(self):
        for name in PROFILES:
            plan = FaultPlan.profile(name, seed=3)
            assert plan.seed == 3
            for rule in plan.rules:
                assert rule.kind in faults.KINDS

    def test_from_env_specs(self):
        assert FaultPlan.from_env("42").seed == 42
        plan = FaultPlan.from_env("storage:7")
        assert plan.seed == 7
        assert plan.rules == FaultPlan.profile("storage", seed=7).rules
        with pytest.raises(ReproError):
            FaultPlan.from_env("nosuchprofile:1")
        with pytest.raises(ReproError):
            FaultPlan.from_env("storage:notanint")

    def test_with_seed(self):
        plan = FaultPlan.profile("chain", seed=1)
        reseeded = plan.with_seed(9)
        assert reseeded.seed == 9
        assert reseeded.rules == plan.rules


# ---------------------------------------------------------------------------
# The injector
# ---------------------------------------------------------------------------


class TestInjector:
    def test_loss_error_family_per_site(self):
        cases = [
            ("storage.get", StorageUnavailableError),
            ("dht.node.get", StorageUnavailableError),
            ("chain.transact", TxDroppedError),
            ("exchange.msg.key", MessageLossError),
        ]
        for site, exc_type in cases:
            injector = FaultInjector(_plan(_always(site, "loss")))
            with pytest.raises(exc_type):
                injector.check(site)
            assert isinstance(injector.log[-1].site, str)

    def test_stall_error_family_per_site(self):
        cases = [
            ("storage.get", StorageTimeoutError),
            ("chain.events", EventDelayError),
            ("exchange.msg.key", MessageStallError),
        ]
        for site, exc_type in cases:
            injector = FaultInjector(
                _plan(_always(site, "stall", delay_us=10_000))
            )
            with pytest.raises(exc_type):
                injector.check(site)
            assert injector.clock.now_us == 10_000

    def test_all_injected_errors_are_transient(self):
        for kind in ("loss", "drop", "revert", "stall"):
            injector = FaultInjector(
                _plan(_always("chain.transact", kind, delay_us=1))
            )
            with pytest.raises(TransientError):
                injector.check("chain.transact")

    def test_delay_advances_clock_without_raising(self):
        injector = FaultInjector(_plan(_always("chain.transact", "delay", delay_us=250)))
        injector.check("chain.transact")
        injector.check("chain.transact")
        assert injector.clock.now_us == 500
        assert [f.kind for f in injector.log] == ["delay", "delay"]

    def test_max_faults_budget(self):
        injector = FaultInjector(
            _plan(_always("chain.transact", "drop", max_faults=2))
        )
        for _ in range(2):
            with pytest.raises(TxDroppedError):
                injector.check("chain.transact")
        injector.check("chain.transact")  # budget spent: passes
        assert injector.injected == 2

    def test_corrupt_flips_first_byte_deterministically(self):
        injector = FaultInjector(_plan(_always("storage.get.data", "corrupt")))
        out = injector.filter_bytes("storage.get.data", b"hello")
        assert out != b"hello"
        assert out[0] == b"hello"[0] ^ 0xFF
        assert out[1:] == b"ello"
        assert injector.log[-1].kind == "corrupt"

    def test_unavailable_is_boolean_and_counted(self):
        injector = FaultInjector(_plan(_always("dht.node.get", "loss")))
        assert injector.unavailable("dht.node.get") is True
        assert injector.injected == 1
        assert injector.unavailable("dht.get") is False

    def test_same_seed_same_log(self):
        plan = FaultPlan.profile("chain", seed=77)
        logs = []
        for _ in range(2):
            injector = FaultInjector(plan)
            for _ in range(40):
                try:
                    injector.check("chain.transact")
                except TransientError:
                    pass
            logs.append(injector.log)
        assert logs[0] == logs[1]

    def test_consultations_counted(self):
        injector = FaultInjector(_plan(FaultRule("chain.*", "drop", 0)))
        for _ in range(5):
            injector.check("chain.transact")
        assert injector.consultations == 5
        assert injector.injected == 0


class TestModuleHelpers:
    def test_disabled_helpers_are_noops(self):
        assert faults.active() is None or True  # other tests may leave state
        with faults.use_plan(None):
            assert not faults.enabled()
            faults.check("chain.transact")
            assert faults.unavailable("dht.node.get") is False
            assert faults.filter_bytes("storage.get.data", b"x") == b"x"
            assert faults.clock() is None

    def test_use_plan_restores_previous(self):
        outer = FaultPlan.profile("off", seed=1)
        with faults.use_plan(outer):
            before = faults.active()
            with faults.use_plan(FaultPlan.profile("chain", seed=2)) as inner:
                assert faults.active() is inner
            assert faults.active() is before

    def test_configure_from_env(self):
        with faults.use_plan(None):
            faults.configure_from_env({"REPRO_FAULTS": "exchange:11"})
            try:
                assert faults.enabled()
                assert faults.active().plan.seed == 11
            finally:
                faults.set_plan(None)
            faults.configure_from_env({})
            assert not faults.enabled()


# ---------------------------------------------------------------------------
# RetryPolicy
# ---------------------------------------------------------------------------


class TestRetryPolicy:
    def test_backoff_deterministic_and_bounded(self):
        policy = RetryPolicy(seed=5)
        delays = [policy.backoff_us(a, "chain.lock") for a in range(8)]
        assert delays == [policy.backoff_us(a, "chain.lock") for a in range(8)]
        assert all(0 <= d <= MAX_DELAY_US for d in delays)
        # Different sites draw different jitter.
        assert delays != [policy.backoff_us(a, "chain.open") for a in range(8)]

    def test_retries_transient_until_success(self):
        attempts = []

        def flaky():
            attempts.append(1)
            if len(attempts) < 3:
                raise TxDroppedError("gone")
            return "ok"

        assert RetryPolicy().run(flaky, site="chain.transact") == "ok"
        assert len(attempts) == 3

    def test_exhaustion_raises_typed_error(self):
        def always_down():
            raise StorageUnavailableError("nope")

        with pytest.raises(RetryExhaustedError):
            RetryPolicy(max_attempts=3).run(always_down, site="storage.get")

    def test_non_transient_propagates_immediately(self):
        attempts = []

        def broken():
            attempts.append(1)
            raise ValueError("logic bug")

        with pytest.raises(ValueError):
            RetryPolicy().run(broken, site="x")
        assert len(attempts) == 1

    def test_deadline_uses_virtual_clock(self):
        plan = _plan(_always("chain.transact", "drop"))
        with faults.use_plan(plan):
            policy = RetryPolicy(
                max_attempts=50, base_delay_us=300_000, timeout_us=1_000_000
            )
            with pytest.raises(DeadlineExceededError):
                policy.run(
                    lambda: faults.check("chain.transact"), site="chain.transact"
                )


# ---------------------------------------------------------------------------
# Instrumented subsystems
# ---------------------------------------------------------------------------


class TestStorageInjection:
    def test_store_loss_and_recovery(self):
        store = ContentStore()
        with faults.use_plan(_plan(_always("storage.put", "loss", max_faults=1))):
            with pytest.raises(StorageUnavailableError):
                store.put(b"payload")
            uri = store.put(b"payload")  # budget spent: retry succeeds
        assert store.get(uri) == b"payload"

    def test_corrupted_read_is_detected(self):
        store = ContentStore()
        uri = store.put(b"payload")
        with faults.use_plan(_plan(_always("storage.get.data", "corrupt", max_faults=1))):
            with pytest.raises(StorageCorruptionError):
                store.get(uri)
            assert store.get(uri) == b"payload"

    def test_dht_survives_minority_replica_loss(self):
        net = DHTNetwork(["n%d" % i for i in range(8)], replication=4)
        uri = net.put(b"blob")
        with faults.use_plan(_plan(_always("dht.node.get", "loss", max_faults=2))):
            data, _hops = net.get_with_hops(uri)
        assert data == b"blob"

    def test_dht_reports_unavailable_when_all_replicas_down(self):
        net = DHTNetwork(["n%d" % i for i in range(4)], replication=2)
        uri = net.put(b"blob")
        with faults.use_plan(_plan(_always("dht.node.get", "loss"))):
            with pytest.raises(StorageError):
                net.get_with_hops(uri)


class TestChainInjection:
    def _market(self):
        chain = Blockchain()
        operator = chain.create_account(funded=10**12)
        contract = FairSwapContract()
        chain.deploy(contract, operator)
        return chain, contract, operator

    def test_dropped_tx_leaves_no_trace(self):
        chain, contract, operator = self._market()
        receipts_before = len(chain.receipts)
        with faults.use_plan(_plan(_always("chain.transact", "drop", max_faults=1))):
            with pytest.raises(TxDroppedError):
                chain.transact(operator, contract, "offer", 1, 2, 3, 4, 1, 100)
        assert len(chain.receipts) == receipts_before

    def test_reverted_tx_leaves_failed_receipt(self):
        chain, contract, operator = self._market()
        with faults.use_plan(_plan(_always("chain.transact", "revert", max_faults=1))):
            with pytest.raises(TxRevertedError):
                chain.transact(operator, contract, "offer", 1, 2, 3, 4, 1, 100)
        assert chain.receipts[-1].status is False
        # The very next submission goes through and executes the method.
        receipt = chain.transact(operator, contract, "offer", 1, 2, 3, 4, 1, 100)
        assert receipt.status

    def test_event_query_stall(self):
        chain, contract, operator = self._market()
        with faults.use_plan(_plan(_always("chain.events", "stall", delay_us=1))):
            with pytest.raises(EventDelayError):
                chain.query_events(contract.address)


class TestTelemetryAccounting:
    def test_injections_and_retries_counted(self):
        with telemetry.use_level("on"):
            telemetry.reset_metrics()
            plan = _plan(_always("chain.transact", "drop", max_faults=2))
            with faults.use_plan(plan):
                RetryPolicy().run(
                    lambda: faults.check("chain.transact"), site="chain.transact"
                )
            counters = telemetry.snapshot()["counters"]
            assert counters["faults.injected.drop{site=chain.transact}"] == 2
            assert counters["retry.attempts{site=chain.transact}"] == 2


# ---------------------------------------------------------------------------
# The four exchange drivers under faults
# ---------------------------------------------------------------------------
#
# Each driver runs through one harness below that records what the shared
# invariants (``tests/exchange_invariants.py``) and the replay digests need.
# Every driver gives a step two attempts, so a seeded plan's budget can
# outlast it and every abort path is reachable.

CHAOS_PROFILES = ("chain", "exchange", "all")
FUNDS = 10**9
PRICE = 5000
RETRY = RetryPolicy(max_attempts=2)


@dataclass
class Run:
    """Finished exchanges with one seller, and what is checked about them."""

    chain: Blockchain
    escrow: object
    receipts: list
    runs: list  # (result, buyer address) pairs
    seller: str
    start: dict  # balances before the runs
    injector: FaultInjector
    plaintext: list
    published: Published
    sites: list  # every site the runs consulted the fault plane at
    #: What nobody but the seller (and, for k_v, its buyer) may see: set
    #: for the key-secure driver and the node, whose protocol hides them.
    secrets: tuple = ()

    @property
    def result(self):
        (result, _buyer), = self.runs
        return result

    @property
    def edges(self) -> set:
        """The off-chain message channels and transaction methods used."""
        messages = {site for site in self.sites if site.startswith("exchange.msg.")}
        return messages | {method for method, _calldata in self.published.calldata}

    def check(self):
        assert_safe_end(
            self.chain, self.escrow, self.receipts, self.runs, self.seller, PRICE,
            self.start, plaintext=self.plaintext,
        )
        if self.secrets:
            assert_secrets_hidden(self, self.secrets)

    def digest(self) -> str:
        """sha256 of the fault log, the virtual clock, the receipts and the
        results — everything a replay must reproduce except gas (pi_k
        calldata is randomly blinded)."""
        record = (
            self.injector.log,
            self.injector.clock.now_us,
            [(r.method, r.status) for r in self.receipts],
            [(r.success, r.aborted, r.reason) for r, _buyer in self.runs],
        )
        return hashlib.sha256(repr(record).encode()).hexdigest()


@contextmanager
def _faults(chain, plan=None, drop=None):
    """Run under ``plan`` (by default one that injects nothing), dropping
    every submission of the method ``drop``.  Yields the injector, what the
    run publishes (:func:`~tests.exchange_invariants.publishing`) and the
    list of sites it consults the fault plane at."""
    if drop is not None:
        transact = chain.transact

        def transact_or_drop(sender, contract, method, *args, **kwargs):
            if method == drop:
                raise TxDroppedError("every %s submission dropped" % drop)
            return transact(sender, contract, method, *args, **kwargs)

        chain.transact = transact_or_drop
    sites = []
    try:
        with publishing(chain) as published, faults.use_plan(plan or _plan()) as injector:
            check = injector.check

            def consulted(site):
                sites.append(site)
                check(site)

            injector.check = consulted
            yield injector, published, sites
    finally:
        vars(chain).pop("transact", None)


class _ProvenSeller(Seller):
    """A seller who proved (c_d, pi_p) once and sends it on every run, so
    these runs pay for the drivers and pi_k, not for pi_p."""

    def __init__(self, ctx, asset, address, message):
        super().__init__(ctx, asset, address)
        self.message = message

    def data_validation_message(self, predicate=None):
        return self.message


#: Full-width keys, so a secret found in public data is never a small
#: integer that happens to match.
ZKCP_KEY = R - 4242
FAIRSWAP_KEY = R - 777


@pytest.fixture(scope="module")
def sale(snark_ctx):
    asset = DataAsset.create([42, 84], key=R - 555, nonce=666)
    asset.uri = "u"
    return asset, Seller(snark_ctx, asset, "offchain").data_validation_message()


@pytest.fixture(scope="module")
def zkcp():
    """One ZKCP market for the module: the driver keeps its Groth16 keys,
    so only the first run pays for the set-up."""
    chain = Blockchain()
    arbiter = ZKCPArbiterContract()
    chain.deploy(arbiter, chain.create_account(funded=10**12))
    return ZKCPExchange(chain, arbiter, retry=RETRY)


def _keysecure(snark_ctx, sale, plan=None, drop=None):
    asset, message = sale
    chain = Blockchain()
    operator = chain.create_account(funded=10**12)
    verifier = PlonkVerifierContract(key_negotiation_keys(snark_ctx).vk)
    chain.deploy(verifier, operator)
    arbiter = KeySecureArbiterContract(verifier)
    chain.deploy(arbiter, operator)
    seller, buyer = chain.create_account(funded=FUNDS), chain.create_account(funded=FUNDS)
    protocol = KeySecureExchange(snark_ctx, chain, arbiter, retry=RETRY)
    party = Buyer(snark_ctx, asset.public_view(snark_ctx.srs), buyer)
    with _faults(chain, plan, drop) as (injector, published, sites):
        result = protocol.run(_ProvenSeller(snark_ctx, asset, seller, message), party, price=PRICE)
    # k_v is None when the run ended before the buyer chose one.
    secrets = asset_secrets(asset) + ((party.k_v,) if party.k_v else ())
    return Run(
        chain, arbiter, chain.receipts, [(result, buyer)], seller,
        {seller: FUNDS, buyer: FUNDS}, injector, asset.plaintext, published, sites, secrets,
    )


def _zkcp(protocol, plan=None, drop=None):
    chain = protocol.chain
    seller, buyer = chain.create_account(funded=FUNDS), chain.create_account(funded=FUNDS)
    asset = DataAsset.create([7, 8], key=ZKCP_KEY, nonce=1)
    mark = len(chain.receipts)
    with _faults(chain, plan, drop) as (injector, published, sites):
        result = protocol.run(seller, buyer, asset, price=PRICE)
    return Run(
        chain, protocol.arbiter, chain.receipts[mark:], [(result, buyer)], seller,
        {seller: FUNDS, buyer: FUNDS}, injector, asset.plaintext, published, sites,
    )


def _fairswap(plan=None, drop=None):
    chain = Blockchain()
    seller, buyer = chain.create_account(funded=FUNDS), chain.create_account(funded=FUNDS)
    contract = FairSwapContract()
    chain.deploy(contract, seller)
    listing = FairSwapListing.create([10, 20, 30, 40], key=FAIRSWAP_KEY, nonce=3)
    protocol = FairSwapExchange(chain, contract, retry=RETRY)
    with _faults(chain, plan, drop) as (injector, published, sites):
        result = protocol.run(seller, buyer, listing, price=PRICE)
    return Run(
        chain, contract, chain.receipts, [(result, buyer)], seller,
        {seller: FUNDS, buyer: FUNDS}, injector, listing.blocks, published, sites,
    )


def _node(snark_ctx, asset, bundles, plan=None, drop=None):
    """One node request per bundle, served one at a time and settled one per
    batch, so no wall-clock timer orders the fault sites."""

    async def scenario():
        config = NodeConfig(
            verify_phase1="skip", concurrency=1, batch_size=1, per_tenant_depth=None
        )
        node = MarketplaceNode(snark_ctx, config, retry=RETRY)
        session = node.open_session(asset)
        seller = session.seller.address
        buyers = [node.register_account(funded=FUNDS) for _ in bundles]
        start = {address: node.chain.balance_of(address) for address in [seller, *buyers]}
        requests = [
            ExchangeRequest(
                session.session_id, tenant="t%d" % i, price=PRICE, buyer_address=buyer,
                bundle=bundle,
            )
            for i, (buyer, bundle) in enumerate(zip(buyers, bundles))
        ]
        await node.start()
        try:
            with _faults(node.chain, plan, drop) as (injector, published, sites):
                outcomes = await node.serve(requests)
        finally:
            await node.stop()
        secrets = (*asset_secrets(asset), *(b.verification_key for b in bundles))
        return Run(
            node.chain, node.arbiter, node.chain.receipts, list(zip(outcomes, buyers)),
            seller, start, injector, asset.plaintext, published, sites, secrets,
        )

    return asyncio.run(scenario())


def _tampered(bundle):
    return dataclasses.replace(bundle, masked_key=(bundle.masked_key + 1) % R)


#: Transactions only an abort path sends: a clean run never touches them.
ABORT_PATH = frozenset({"refund", "abort"})


@pytest.mark.slow
class TestEveryEdge:
    """Every fallible edge of every driver, failed for good in turn: each
    message channel blacked out, each transaction method dropped on every
    submission.  A clean run says which edges a driver touches, so one
    that grows an edge fails here until its table names the edge.  Each
    failed run must end safe, with the reason naming the edge."""

    def _each(self, run_with, table):
        clean = run_with()
        clean.check()
        assert clean.result.success
        assert clean.edges <= set(table), "no case fails %s" % (clean.edges - set(table))
        assert set(table) - clean.edges <= ABORT_PATH
        reasons = {}
        for edge in table:
            if edge.startswith("exchange.msg."):
                failing = {"plan": _plan(FaultRule(edge, "loss", PPM))}
            else:
                failing = {"drop": edge}
            try:
                run = run_with(**failing)
            except ExchangeAbortedError as exc:
                reasons[edge] = "raises %s" % str(exc).partition(":")[0]
                continue
            run.check()
            reasons[edge] = run.result.reason.partition(":")[0]
        assert reasons == table

    def test_keysecure(self, snark_ctx, sale):
        self._each(lambda **kw: _keysecure(snark_ctx, sale, **kw), {
            "exchange.msg.validation": "phase-1 message undeliverable",
            "exchange.msg.key": "k_v undeliverable",
            "exchange.msg.negotiation": "phase-2 message undeliverable",
            "lock_payment": "payment lock undeliverable",
            "submit_key": "key submission undeliverable",
            "refund": "ok",  # a clean run never refunds
        })

    def test_zkcp(self, zkcp):
        self._each(lambda **kw: _zkcp(zkcp, **kw), {
            "exchange.msg.deliver": "deliver message undeliverable",
            "lock": "payment lock undeliverable",
            "open": "open undeliverable",
            "refund": "ok",
        })

    def test_fairswap(self):
        self._each(_fairswap, {
            "offer": "offer undeliverable",
            "accept": "accept undeliverable",
            "reveal_key": "reveal undeliverable",
            "abort": "ok",
            # A seller who cannot finalize after revealing has no safe end
            # left to reach: the driver says so instead of reporting one.
            "finalize": "raises finalize for sale 1 could not be submitted",
        })

    def test_node(self, snark_ctx, pik_bundles):
        asset, bundles = pik_bundles
        self._each(lambda **kw: _node(snark_ctx, asset, bundles[:1], **kw), {
            "exchange.msg.key": "k_v undeliverable",
            "exchange.msg.negotiation": "phase-2 message undeliverable",
            "lock_payment": "payment lock undeliverable",
            "submit_key_batch": "settlement undeliverable",
            "refund": "ok",
        })
        # A poisoned bundle is the node's fatal receipt: refunded, not paid.
        run = _node(snark_ctx, asset, [_tampered(bundles[0]), bundles[1]])
        run.check()
        assert [r.reason for r, _buyer in run.runs] == ["pi_k rejected on chain", "ok"]


@pytest.mark.slow
class TestSecretsHidden:
    """The paper's case against ZKCP and FairSwap, as a test: the secrecy
    check every key-secure and node run passes fails on both of them, and
    on a key-secure run that puts k in one span attribute."""

    def _visible(self, run, secret):
        with pytest.raises(AssertionError) as excinfo:
            assert_secrets_hidden(run, (secret,))
        return str(excinfo.value)

    def test_zkcp_opens_the_key_on_chain(self, zkcp):
        visible = self._visible(_zkcp(zkcp), ZKCP_KEY)
        for place in ("calldata open", "ZKCPArbiterContract('revealed_key', ", "event Opened.key"):
            assert place in visible

    def test_fairswap_stores_the_key(self):
        visible = self._visible(_fairswap(), FAIRSWAP_KEY)
        for place in ("calldata reveal_key", "FairSwapContract('key', 1)", "event KeyRevealed.key"):
            assert place in visible

    def test_one_span_attribute_carrying_k_is_caught(self, snark_ctx, sale, monkeypatch):
        prove = Seller.key_negotiation_message

        def leaky(seller, k_v, h_v):
            telemetry.current_span().set_attr("k", seller.asset.key)
            return prove(seller, k_v, h_v)

        monkeypatch.setattr(Seller, "key_negotiation_message", leaky)
        run = _keysecure(snark_ctx, sale)
        assert self._visible(run, sale[0].key) == (
            "a secret is visible in: span exchange.prove.k; ledger exchange.keysecure"
        )


#: One pinned chaos seed per driver and the sha256 of its replay
#: (:meth:`Run.digest`), recorded before the drivers shared one step
#: runner: a refactor that reorders a fault consultation or rewords a
#: reason fails here.
REPLAY_GOLDEN = {
    "keysecure": ("all", 13, "07faefe6dac9180deffbaed48b46fbc2d3c6f0b825864eb63eda6f22c7ea68f6"),
    "zkcp": ("all", 13, "8896e0d80f4d4fba16f2af89d478a3c258e9d21176d1e0b6270cb70959cbf36c"),
    "fairswap": ("chain", 45, "c6314d9bbb3846e0415720a387fb86bc320481ddf57904b9654f92ed2c0a5a62"),
    "node": ("exchange", 3, "b30835c76ce00105d95dbb8b740268aa5d96a239697def49a5be55ef03b77d04"),
}


@pytest.mark.slow
class TestReplayGolden:
    def _run(self, driver, snark_ctx, sale, zkcp, pik_bundles):
        profile, seed, _digest = REPLAY_GOLDEN[driver]
        plan = FaultPlan.profile(profile, seed=seed)
        if driver == "keysecure":
            return _keysecure(snark_ctx, sale, plan=plan)
        if driver == "zkcp":
            return _zkcp(zkcp, plan=plan)
        if driver == "fairswap":
            return _fairswap(plan=plan)
        asset, bundles = pik_bundles
        return _node(snark_ctx, asset, [bundles[0], _tampered(bundles[1]), *bundles], plan=plan)

    @pytest.mark.parametrize("driver", sorted(REPLAY_GOLDEN))
    def test_replay_matches_golden(self, driver, snark_ctx, sale, zkcp, pik_bundles):
        run = self._run(driver, snark_ctx, sale, zkcp, pik_bundles)
        run.check()
        assert run.digest() == REPLAY_GOLDEN[driver][2]


@pytest.mark.chaos
@pytest.mark.slow
class TestKeySecureChaos:
    @pytest.mark.parametrize("profile", CHAOS_PROFILES)
    @pytest.mark.parametrize("offset", (0, 1, 2))
    def test_terminates_safely(self, snark_ctx, sale, chaos_seed, profile, offset):
        plan = FaultPlan.profile(profile, seed=chaos_seed + offset)
        _keysecure(snark_ctx, sale, plan=plan).check()

    def test_same_seed_replays_bit_identically(self, snark_ctx, sale, chaos_seed):
        plan = FaultPlan.profile("all", seed=chaos_seed)
        a, b = (_keysecure(snark_ctx, sale, plan=plan) for _ in range(2))
        assert a.digest() == b.digest()
        assert [a.chain.balance_of(x) for x in a.start] == [
            b.chain.balance_of(x) for x in b.start
        ]


@pytest.mark.chaos
@pytest.mark.slow
class TestZKCPChaos:
    @pytest.mark.parametrize("offset", (0, 1))
    def test_terminates_safely(self, zkcp, chaos_seed, offset):
        _zkcp(zkcp, plan=FaultPlan.profile("all", seed=chaos_seed + offset)).check()


@pytest.mark.chaos
class TestFairSwapChaos:
    @pytest.mark.parametrize("profile", ("chain", "all"))
    @pytest.mark.parametrize("offset", tuple(range(6)))
    def test_terminates_safely(self, chaos_seed, profile, offset):
        _fairswap(plan=FaultPlan.profile(profile, seed=chaos_seed + offset)).check()

    def test_same_seed_replays_bit_identically(self, chaos_seed):
        a, b = (_fairswap(plan=FaultPlan.profile("all", seed=chaos_seed)) for _ in range(2))
        assert a.digest() == b.digest()
        assert a.result.gas_used == b.result.gas_used


@pytest.mark.chaos
class TestForcedAbortPaths:
    """Plans crafted to push each driver down its abort path."""

    def test_fairswap_reveal_blackout_refunds_buyer(self):
        """Seller vanishes after the buyer escrows: offer and accept land,
        every reveal is dropped, and so are the first two abort
        submissions.  The driver must wait out the reveal window and pull
        the escrow back through the contract's abort entry point, riding
        out the dropped aborts under the refund's own policy."""
        chain = Blockchain()
        seller = chain.create_account(funded=FUNDS)
        buyer = chain.create_account(funded=FUNDS)
        contract = FairSwapContract()
        chain.deploy(contract, seller)
        listing = FairSwapListing.create([10, 20], key=777, nonce=3)
        protocol = FairSwapExchange(chain, contract, retry=RetryPolicy(max_attempts=3))
        dropped = []
        transact = chain.transact

        def flaky(sender, contract, method, *args, **kwargs):
            if method == "reveal_key" or (method == "abort" and dropped.count("abort") < 2):
                dropped.append(method)
                raise TxDroppedError("dropped %s" % method)
            return transact(sender, contract, method, *args, **kwargs)

        chain.transact = flaky
        result = protocol.run(seller, buyer, listing, price=PRICE)
        assert dropped == ["reveal_key"] * 3 + ["abort"] * 2
        assert result.aborted and not result.success
        assert result.reason.startswith("reveal undeliverable")
        assert chain.balance_of(buyer) == FUNDS
        assert chain.call_view(contract, "resolution", 1) == "aborted"
        assert chain.call_view(contract, "revealed_key", 1) is None

    def test_fairswap_abort_respects_reveal_window(self):
        chain = Blockchain()
        seller = chain.create_account(funded=10**9)
        buyer = chain.create_account(funded=10**9)
        contract = FairSwapContract()
        chain.deploy(contract, seller)
        listing = FairSwapListing.create([10, 20], key=777, nonce=3)
        from repro.primitives.hashing import field_hash

        receipt = chain.transact(
            seller, contract, "offer",
            listing.cipher_tree.root, listing.plain_tree.root,
            field_hash(listing.key), listing.nonce, len(listing.blocks), 100,
        )
        sale_id = receipt.return_value
        chain.transact(buyer, contract, "accept", sale_id, value=100)
        # Immediately aborting must revert: the seller still has time.
        receipt = chain.transact(buyer, contract, "abort", sale_id)
        assert not receipt.status
        assert "window" in receipt.error


# ---------------------------------------------------------------------------
# Disabled-plane guarantees (fast)
# ---------------------------------------------------------------------------


class TestDisabledPlaneIsInert:
    def test_protocol_results_identical_with_and_without_empty_plan(self):
        def sale():
            chain = Blockchain()
            seller = chain.create_account(funded=10**9)
            buyer = chain.create_account(funded=10**9)
            contract = FairSwapContract()
            chain.deploy(contract, seller)
            listing = FairSwapListing.create([10, 20, 30, 40], key=777, nonce=3)
            result = FairSwapExchange(chain, contract).run(
                seller, buyer, listing, price=5000
            )
            return result.success, result.reason, result.gas_used

        bare = sale()
        with faults.use_plan(FaultPlan.profile("off", seed=1)):
            empty = sale()
        assert bare == empty

    def test_fr_modulus_sanity(self):
        # Anchor for the suite: field ops used by chaos invariants.
        assert pow(2, R - 1, R) == 1
