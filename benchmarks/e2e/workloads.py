"""The four workloads: inputs from a seed, operations, output checks, controls.

All four are closed loops: a buyer or auditor issues its next request only
when the previous reply has been checked.  A 2-core box cannot hold an
arrival schedule while the program computes in the same process, and the
paper's users (buyers waiting for a key, auditors waiting for a verdict)
each wait for their reply.

``repro`` is imported inside ``setup`` — imports are part of ``setup_s``,
and ``run.py`` must pin the environment first.  ``SimConfig``/``NodeConfig``
values not named here stay at the program's defaults, so a later change of
default is measured, not masked.
"""

from __future__ import annotations

import asyncio
import collections
import contextlib
import dataclasses
import gc
import random
from time import perf_counter

import tracing
from calibrate import busy_factor, run_slice
from harness import SEGMENT_S, Op, Timeline


class CheckFailed(Exception):
    """An output check failed, or a negative control passed."""


#: Gas categories; on every workload they sum to ``gas_per_op`` exactly.
GAS_CATEGORIES = (
    "contracts.arbiter.lock_payment",
    "contracts.arbiter.submit_key_batch",
    "contracts.arbiter.zkcp",
    "contracts.token",
    "contracts.other",
)


def gas_by_category(chain, receipts) -> collections.Counter:
    """Gas of ``receipts`` split by the contract (and method) that was called."""
    from repro.contracts.arbiter import KeySecureArbiterContract, ZKCPArbiterContract
    from repro.contracts.erc721 import DataTokenContract

    out: collections.Counter = collections.Counter({name: 0 for name in GAS_CATEGORIES})
    for receipt in receipts:
        contract = chain.contracts.get(receipt.to)
        if isinstance(contract, KeySecureArbiterContract) and receipt.method in (
            "lock_payment",
            "submit_key_batch",
        ):
            out["contracts.arbiter." + receipt.method] += receipt.gas_used
        elif isinstance(contract, ZKCPArbiterContract):
            out["contracts.arbiter.zkcp"] += receipt.gas_used
        elif isinstance(contract, DataTokenContract):
            out["contracts.token"] += receipt.gas_used
        else:
            out["contracts.other"] += receipt.gas_used
    return out


def circuit_size(build) -> int:
    """Padded size n of the circuit ``build(builder)`` describes."""
    from repro.plonk.circuit import CircuitBuilder

    builder = CircuitBuilder()
    build(builder)
    layout, _ = builder.compile(check=False)
    return layout.n


class Workload:
    """One workload; each subclass's docstring says why it was chosen."""

    name = ""
    #: The window also runs until this many operations have finished.
    min_ops = 6

    def __init__(self, seed: int, tracer: tracing.Tracer, traced: bool, quick: bool) -> None:
        self.seed = seed
        self.rng = random.Random(seed)
        self.tracer = tracer
        self.traced = traced
        self.quick = quick

    def _install_tracing(self, timeline: Timeline) -> None:
        with timeline.step("trace.install"):
            if self.traced:
                tracing.install(self.tracer)

    def setup(self, timeline: Timeline) -> None:
        raise NotImplementedError

    def begin_window(self) -> None:
        """Called right before each window (a traced run has two)."""

    def segment(self) -> list[Op]:
        """Run ~SEGMENT_S of operations; one entry per operation."""
        raise NotImplementedError

    def between_segments(self) -> None:
        """Untimed housekeeping after every window segment."""

    def gas_per_op(self) -> dict[str, float]:
        """Gas per operation of the last window, by GAS_CATEGORIES."""
        raise NotImplementedError

    def layer_counts(self) -> dict[str, float]:
        """Per-layer counts the program itself reports (per operation)."""
        return {}

    def control(self) -> None:
        """Untimed negative control, run after the window with recording
        off; raises CheckFailed if it *passes*."""
        raise NotImplementedError

    def close(self) -> None:
        pass


# ----- the two service workloads --------------------------------------------

_PRICE = 5000


class _Service(Workload):
    """Buyers in flight against one ``MarketplaceNode`` on one event loop."""

    buyers = 1
    ops_per_buyer = 1  #: per segment; fixed so every batch fills by size
    node_config: dict = {}
    #: Seconds between reference slices timed in this process while it
    #: waits for an operation the pool worker runs (0: never; see
    #: ``calibrate.busy_factor``).  Only for one buyer in flight: with
    #: more, this process is the one working.
    in_flight_period_s = 0.0

    def setup(self, timeline: Timeline) -> None:
        with timeline.step("import"):
            from repro.core.exchange import build_key_negotiation_circuit, key_negotiation_keys
            from repro.core.snark import SnarkContext
            from repro.core.tokens import DataAsset
            from repro.plonk.keys import DEGREE_MARGIN
            from repro.service import MarketplaceNode, NodeConfig
        self._install_tracing(timeline)
        with timeline.step("srs"):
            n = circuit_size(lambda b: build_key_negotiation_circuit(b, 0, 0, 0, 0, 0, 0))
            self.ctx = SnarkContext.with_fresh_srs(
                n + DEGREE_MARGIN, tau=self.rng.getrandbits(200) | 1
            )
        with timeline.step("keys"):
            key_negotiation_keys(self.ctx)
        with timeline.step("node"):
            self.asset = DataAsset.create(
                [self.rng.getrandbits(64)],
                key=self.rng.getrandbits(200),
                nonce=self.rng.getrandbits(200),
            )
            # verify_phase1="skip": the default ("session") makes
            # open_session prove and verify pi_p at n=4096 (~20 s), which
            # the per-run time budget cannot hold; publish-side proving is
            # audit_token's set-up instead.
            config = NodeConfig(verify_phase1="skip", **self.node_config)
            self.tracer.batch_size = config.batch_size
            self.loop = asyncio.new_event_loop()
            self.node = MarketplaceNode(self.ctx, config)
            self.loop.run_until_complete(self.node.start())
            self.session = self.node.open_session(self.asset, tenant="seller")
            self.tenants = ["tenant-%d" % i for i in range(self.buyers)]
            self.rng.shuffle(self.tenants)
        with timeline.step("bundle"):
            self.bundle = self._make_bundle()
        with timeline.step("warmup"):
            for _ in range(1 if self.quick else 2):
                if not all(op.ok for op in self._round(self.bundle, 1)):
                    raise CheckFailed("%s: a warm-up operation failed" % self.name)
        gc.collect()
        gc.freeze()

    def _k_v(self) -> tuple[int, int]:
        from repro.primitives.hashing import field_hash

        k_v = self.rng.getrandbits(200) | 1
        return k_v, field_hash(k_v)

    def _make_bundle(self):
        """A valid seller-proven (k_v, h_v, k_c, pi_k) for this asset."""
        raise NotImplementedError

    def _request(self, tenant: str, bundle, buyer_address=None):
        from repro.service import ExchangeRequest

        return ExchangeRequest(
            self.session.session_id,
            tenant=tenant,
            price=_PRICE,
            buyer_address=buyer_address,
            bundle=bundle,
        )

    async def _exchange(self, request):
        """One operation: request issued -> result checked."""
        from repro.errors import ServiceError

        slices: list[float] = []
        with self.tracer.op() as root:
            start = perf_counter()
            sampler = asyncio.ensure_future(self._sample_in_flight(slices))
            try:
                outcome = await self.node.submit(request)
            except ServiceError:
                outcome = None  # refused at the door: counted, not dropped
            finally:
                sampler.cancel()
                with contextlib.suppress(asyncio.CancelledError):
                    await sampler
            self.tracer.close_request(root)
            ok = (
                outcome is not None
                and outcome.success
                and outcome.plaintext == self.asset.plaintext
            )
            return Op(perf_counter() - start, ok, factor=busy_factor(slices)), outcome

    async def _sample_in_flight(self, slices: list[float]) -> None:
        while self.in_flight_period_s:
            await asyncio.sleep(self.in_flight_period_s)
            slices.append(run_slice())

    def _round(self, bundle, ops_per_buyer: int) -> list[Op]:
        async def buyer(tenant: str) -> list[Op]:
            return [
                (await self._exchange(self._request(tenant, bundle)))[0]
                for _ in range(ops_per_buyer)
            ]

        async def everyone() -> list[Op]:
            done = await asyncio.gather(*(buyer(t) for t in self.tenants))
            return [op for ops in done for op in ops]

        return self.loop.run_until_complete(everyone())

    def begin_window(self) -> None:
        self._receipt_mark = len(self.node.chain.receipts)
        self._window_ok = 0

    def segment(self) -> list[Op]:
        ops = self._round(self._window_bundle(), self.ops_per_buyer)
        self._window_ok += sum(op.ok for op in ops)
        return ops

    def _window_bundle(self):
        return self.bundle

    def gas_per_op(self) -> dict[str, float]:
        chain = self.node.chain
        gas = gas_by_category(chain, chain.receipts[self._receipt_mark:])
        return {name: gas[name] / max(1, self._window_ok) for name in GAS_CATEGORIES}

    def _tampered(self, bundle):
        from repro.field.fr import MODULUS

        return dataclasses.replace(bundle, masked_key=(bundle.masked_key + 1) % MODULUS)

    def _expect_refund(self, outcome, buyer: str, funded: int) -> None:
        if outcome is None or outcome.success or not outcome.aborted:
            raise CheckFailed("%s: a tampered pi_k bundle was not rejected" % self.name)
        if self.node.chain.balance_of(buyer) != funded:
            raise CheckFailed("%s: the buyer of a rejected exchange was not refunded" % self.name)

    def close(self) -> None:
        if hasattr(self, "node"):  # set-up may have failed before the node existed
            self.loop.run_until_complete(self.node.stop())
            self.loop.close()


class ProveExchange(_Service):
    """One buyer in flight, pi_k proven per request in the ProverPool worker:
    ~97% prover kernels (MSM, NTT), so prover changes show here and settlement
    changes do not."""

    name = "prove_exchange"
    min_ops = 2
    node_config = {"pool_workers": 1, "concurrency": 1, "batch_size": 1}
    in_flight_period_s = 0.2

    def _make_bundle(self):
        # Proven through the pool, so it doubles as the worker's first
        # (cold-cache) proof; the warm-up round then settles it.
        from repro.service import NegotiationBundle

        k_v, h_v = self._k_v()
        k_c, proof_bytes = self.loop.run_until_complete(
            self.node.pool.prove_key_negotiation(self.asset, k_v, h_v)
        )
        return NegotiationBundle(k_v, h_v, k_c, proof_bytes)

    def _window_bundle(self):
        return None  # the node proves pi_k itself

    def control(self) -> None:
        funded = 2 * _PRICE
        buyer = self.node.register_account(funded=funded)
        request = self._request(self.tenants[0], self._tampered(self.bundle), buyer)
        _, outcome = self.loop.run_until_complete(self._exchange(request))
        self._expect_refund(outcome, buyer, funded)


class ServeBundled(_Service):
    """8 buyers in flight with a seller-proven bundle, batches of 8: no proving
    in the window, time in batch verification, pairing, chain and the service
    plane."""

    name = "serve_bundled"
    buyers = 8
    ops_per_buyer = 3
    min_ops = 48
    node_config = {"concurrency": 8, "batch_size": 8, "batch_delay": 0.02}

    def _make_bundle(self):
        from repro.core.exchange import Seller
        from repro.service import NegotiationBundle

        k_v, h_v = self._k_v()
        seller = Seller(self.ctx, self.asset, "offchain-prover")
        k_c, pi_k = seller.key_negotiation_message(k_v, h_v)
        return NegotiationBundle(k_v, h_v, k_c, pi_k.to_bytes())

    def control(self) -> None:
        """One poisoned member in a full batch fails alone."""
        funded = 2 * _PRICE
        accounts = [self.node.register_account(funded=funded) for _ in self.tenants]
        poisoned = self.rng.randrange(len(self.tenants))
        requests = [
            self._request(
                tenant, self._tampered(self.bundle) if i == poisoned else self.bundle, accounts[i]
            )
            for i, tenant in enumerate(self.tenants)
        ]

        async def batch():
            return await asyncio.gather(*(self._exchange(r) for r in requests))

        results = self.loop.run_until_complete(batch())
        for i, (op, outcome) in enumerate(results):
            if i == poisoned:
                self._expect_refund(outcome, accounts[i], funded)
            elif not op.ok:
                raise CheckFailed("serve_bundled: a poisoned batch member failed its batchmates")


# ----- audit ----------------------------------------------------------------


class AuditToken(Workload):
    """Set-up publishes a 1-entry dataset (key generation + pi_e at n=4096:
    the data-owner cost); the operation is a public audit: storage fetch, chain
    views, one plonk.verify."""

    name = "audit_token"
    min_ops = 6

    def setup(self, timeline: Timeline) -> None:
        with timeline.step("import"):
            from repro.core.exchange import build_key_negotiation_circuit
            from repro.core.marketplace import ZKDETMarketplace
            from repro.core.snark import SnarkContext
            from repro.core.transform_protocol import build_encryption_circuit
            from repro.plonk.keys import DEGREE_MARGIN
        self._install_tracing(timeline)
        with timeline.step("srs"):
            n = max(
                circuit_size(lambda b: build_key_negotiation_circuit(b, 0, 0, 0, 0, 0, 0)),
                circuit_size(lambda b: build_encryption_circuit(b, [0], 0, 0, 0, [0], 0, 0, 0)),
            )
            ctx = SnarkContext.with_fresh_srs(n + DEGREE_MARGIN, tau=self.rng.getrandbits(200) | 1)
        with timeline.step("marketplace"):
            self.market = ZKDETMarketplace(ctx)
            owner = self.market.register_participant()
        with timeline.step("publish"):
            mark = len(self.market.chain.receipts)
            self.published = self.market.publish_dataset(owner, [self.rng.getrandbits(64)])
            self._mint_gas = gas_by_category(
                self.market.chain, self.market.chain.receipts[mark:]
            )
        with timeline.step("warmup"):
            for _ in range(1 if self.quick else 2):
                if not self._audit().ok:
                    raise CheckFailed("audit_token: a warm-up audit failed")
        gc.collect()
        gc.freeze()

    def _audit(self) -> Op:
        from repro.errors import ReproError

        with self.tracer.op():
            start = perf_counter()
            try:
                report = self.market.audit(self.published.token_id)
                # token exists, ciphertext resolves, pi_e published, pi_e verifies
                ok = report.ok and len(report.checks) == 4 and not report.failed_checks()
            except ReproError:
                ok = False
            return Op(perf_counter() - start, ok)

    def segment(self) -> list[Op]:
        ops, start = [], perf_counter()
        while perf_counter() - start < SEGMENT_S:
            ops.append(self._audit())
        return ops

    def gas_per_op(self) -> dict[str, float]:
        # An audit only reads the chain, so its window mines nothing; the
        # gas a user pays on this path is the mint that made the token
        # auditable (Table II's mint row), reported per published token.
        return {name: float(self._mint_gas[name]) for name in GAS_CATEGORIES}

    def control(self) -> None:
        """A forged pi_e in the public proof registry fails the audit."""
        from repro.field.fr import MODULUS

        registry = self.market._pi_e_registry
        token = self.published.token_id
        honest = registry[token]
        forged_proof = dataclasses.replace(honest.proof, a_bar=(honest.proof.a_bar + 1) % MODULUS)
        registry[token] = dataclasses.replace(honest, proof=forged_proof)
        try:
            report = self.market.audit(token)
        finally:
            registry[token] = honest
        if report.ok:
            raise CheckFailed("audit_token: an audit passed with a forged pi_e")


# ----- population -----------------------------------------------------------

_EPISODE_OPS = 2_000
#: gas_per_op comes from the first episodes only, so it is a pure function
#: of the seed and does not change with how many episodes a window fits.
_GAS_EPISODES = 6


class Population(Workload):
    """10^4-user simulator episodes of 2,000 mixed operations: no proofs, time
    in chain (mempool, lanes, sealing, events), contracts, DHT and loadsim;
    proving changes must leave it unmoved."""

    name = "population"
    min_ops = _GAS_EPISODES * _EPISODE_OPS

    def setup(self, timeline: Timeline) -> None:
        with timeline.step("import"):
            import repro.loadsim.sim  # noqa: F401
        self._install_tracing(timeline)
        with timeline.step("warmup"):
            digests = {self._episode(0)[1].digest for _ in range(1 if self.quick else 2)}
            if len(digests) != 1 or "" in digests:
                raise CheckFailed("population: equal configs produced different digests")
        gc.collect()
        gc.freeze()

    def begin_window(self) -> None:
        self._episodes = 0
        self._finished: list = []  #: (chain, report) awaiting between_segments()
        self._gas: collections.Counter = collections.Counter()
        self._totals: collections.Counter = collections.Counter()

    def _episode(self, index: int):
        from repro.errors import ReproError
        from repro.loadsim.sim import LoadSimulator, SimConfig

        config = SimConfig(
            users=10_000,
            ops=_EPISODE_OPS,
            mix="mixed",
            seed=self.seed + index,
            fault_profile="off",
        )
        with self.tracer.op():
            start = perf_counter()
            try:
                self.sim = LoadSimulator(config)
                report = self.sim.run()
                ok = (
                    not report.violations
                    and report.mined > 0
                    and report.shed == 0
                    and report.audit_misses == 0
                )
            except ReproError:
                report, ok = None, False
            return Op(perf_counter() - start, ok, _EPISODE_OPS), report

    def segment(self) -> list[Op]:
        ops, start = [], perf_counter()
        while perf_counter() - start < SEGMENT_S:
            self._episodes += 1
            op, report = self._episode(self._episodes)
            ops.append(op)
            if report is not None:
                self._finished.append((self.sim.chain, report))
        return ops

    def between_segments(self) -> None:
        # Fold the finished episodes into totals and let go of them: kept,
        # each holds ~3 MiB, and peak RSS would follow the number of
        # episodes the window happened to fit.  The collection matters for
        # the same reason: a finished simulator is a cycle of chain,
        # contracts and checker.
        for chain, report in self._finished:
            if self._totals["gas_episodes"] < _GAS_EPISODES:
                self._gas.update(gas_by_category(chain, chain.receipts))
                self._totals["gas_episodes"] += 1
            self._totals["episodes"] += 1
            self._totals["trades_started"] += report.trades_started
            self._totals["trades_ended_badly"] += report.refunds + report.aborts
            self._totals["mempool_evicted"] += report.mempool_evicted
        self._finished.clear()
        gc.collect()

    def gas_per_op(self) -> dict[str, float]:
        ops = max(1, self._totals["gas_episodes"] * _EPISODE_OPS)
        return {name: self._gas[name] / ops for name in GAS_CATEGORIES}

    def layer_counts(self) -> dict[str, float]:
        started = self._totals["trades_started"]
        ops = max(1, self._totals["episodes"] * _EPISODE_OPS)
        return {
            "loadsim.trades.abort_ratio": (
                self._totals["trades_ended_badly"] / started if started else 0.0
            ),
            "chain.mempool.evicted_per_op": self._totals["mempool_evicted"] / ops,
        }

    def control(self) -> None:
        """A counterfeit balance trips the invariant checker."""
        victim = self.sim.population.account(0)
        self.sim.chain.faucet(victim, 1)
        if self.sim.checker.check_round():
            raise CheckFailed("population: a counterfeit balance passed the invariant check")


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls for cls in (ProveExchange, ServeBundled, AuditToken, Population)
}
