"""The asyncio marketplace node: sessions, admission, pipeline, settlement.

One :class:`MarketplaceNode` is a long-lived serving process for the
key-secure exchange (Section IV-F of the paper).  Where
:class:`repro.core.exchange.KeySecureExchange` drives one exchange as a
synchronous call — re-verifying pi_p, proving pi_k and settling one
transaction at a time — the node amortises everything amortisable:

- **sessions** pin a seller's listing: the phase-1 data-validation
  message ``(c_d, pi_p)`` is produced and verified once per session, not
  once per request;
- **admission control** is a bounded :class:`~repro.service.queue.FairQueue`
  with per-tenant budgets — overload is shed at the door with
  :class:`~repro.errors.QueueFullError`, and dispatch round-robins
  across tenants;
- **proving** goes to a persistent :class:`~repro.service.pool.ProverPool`
  whose forked worker inherits warm SRS/circuit-key/window-table caches
  and the node engine's MSM helpers,
  or to a seller-supplied :class:`NegotiationBundle` (sellers proving on
  their own hardware and attaching pi_k to the offer);
- **settlement** flows through a :class:`~repro.service.settlement.SettlementBatcher`:
  one ``submit_key_batch`` transaction settles k exchanges with a single
  batched pairing check.

Each request steps the same :class:`~repro.faults.retry.ExchangeSteps`
runner as the synchronous driver, so its fault sites, retries and abort
path — the buyer refunded before the outcome is reported — are that
driver's.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro import telemetry
from repro.chain import Blockchain
from repro.contracts import KeySecureArbiterContract, PlonkVerifierContract
from repro.contracts.arbiter import key_digest
from repro.core.exchange import Buyer, ExchangeResult, Seller, key_negotiation_keys
from repro.core.snark import SnarkContext
from repro.core.tokens import DataAsset
from repro.core.transform_protocol import (
    EncryptionProof,
    prove_encryption,
    verify_encryption,
)
from repro.errors import ProtocolError, QueueFullError, ServiceError, SessionError
from repro.faults.retry import ExchangeSteps, RetryPolicy
from repro.service.pool import ProverPool
from repro.service.queue import FairQueue
from repro.service.settlement import SettlementBatcher
from repro.telemetry.metrics import LATENCY_BUCKETS

#: Funds of the operator and of each registered account.
INITIAL_FUNDS = 10**12


@dataclass(frozen=True)
class NodeConfig:
    """Tuning knobs for one node; defaults favour tests over throughput."""

    #: Global request-queue bound (admission control).
    queue_depth: int = 256
    #: Per-tenant queue budget; ``None`` disables the tenant bound.
    per_tenant_depth: Optional[int] = 32
    #: Concurrent pipeline coroutines consuming the queue.
    concurrency: int = 8
    #: Settlement batch size (members per ``submit_key_batch``).
    batch_size: int = 8
    #: Seconds a partial settlement batch may age before flushing.
    batch_delay: float = 0.02
    #: Wall-clock budget for the buyer's off-chain reply (None = wait
    #: forever).  Expires *before* payment lock, so a timed-out request
    #: is rejected with nothing escrowed.
    request_timeout: Optional[float] = 2.0
    #: Phase-1 policy: "session" verifies (c_d, pi_p) once, when the
    #: session opens; "skip" trusts the session opener (test/bench
    #: setups that pre-verified out of band).
    verify_phase1: str = "session"
    #: Where pi_k is proven for requests without an attached bundle:
    #: 1 in the prover pool's one worker, 0 inline on the event loop
    #: (blocks other requests).
    pool_workers: int = 0

    def __post_init__(self) -> None:
        if self.verify_phase1 not in ("session", "skip"):
            raise ServiceError(
                "verify_phase1 must be 'session' or 'skip', got %r" % (self.verify_phase1,)
            )
        if self.pool_workers not in (0, 1):
            raise ServiceError(
                "pool_workers must be 0 (inline) or 1 (the pool), got %r" % (self.pool_workers,)
            )


@dataclass
class Session:
    """One seller listing held open by the node."""

    session_id: int
    tenant: str
    seller: Seller
    asset: DataAsset
    exchanges: int = 0


@dataclass(frozen=True)
class NegotiationBundle:
    """A seller-precomputed phase-2 message: pi_k proven off-node.

    Sellers with their own proving hardware attach ``(k_c, pi_k)`` for a
    buyer-chosen verification key to the offer; the node then only
    verifies and settles.  ``verification_key``/``verification_hash``
    are the buyer's (k_v, h_v) pair the proof binds to.
    """

    verification_key: int
    verification_hash: int
    masked_key: int
    proof_bytes: bytes


@dataclass
class ExchangeRequest:
    """One buyer's request to purchase a session's listing."""

    session_id: int
    tenant: str
    price: int
    #: Buyer account; ``None`` lets the node create a funded account.
    buyer_address: Optional[str] = None
    #: Optional pre-proven phase-2 message (see :class:`NegotiationBundle`).
    bundle: Optional[NegotiationBundle] = None
    #: Simulated off-chain reply latency of this buyer, in seconds —
    #: raced against ``NodeConfig.request_timeout``.
    buyer_delay: float = 0.0


@dataclass
class RequestOutcome(ExchangeResult):
    """The synchronous driver's result plus the request's time in the node."""

    latency_s: float = 0.0


class MarketplaceNode:
    """A long-lived multi-tenant exchange-serving node."""

    def __init__(
        self,
        ctx: SnarkContext,
        config: Optional[NodeConfig] = None,
        retry: Optional[RetryPolicy] = None,
    ) -> None:
        self.ctx = ctx
        self.config = config or NodeConfig()
        self.retry = retry if retry is not None else RetryPolicy()
        self.chain = Blockchain()
        self.operator = self.chain.create_account(funded=INITIAL_FUNDS)
        pik_keys = key_negotiation_keys(ctx)
        self.verifier = PlonkVerifierContract(pik_keys.vk)
        self.chain.deploy(self.verifier, self.operator)
        self.arbiter = KeySecureArbiterContract(self.verifier)
        self.chain.deploy(self.arbiter, self.operator)
        self.queue = FairQueue(
            self.config.queue_depth, per_tenant=self.config.per_tenant_depth
        )
        self.batcher = SettlementBatcher(
            self.chain,
            self.arbiter,
            relay_address=self.operator,
            batch_size=self.config.batch_size,
            max_delay=self.config.batch_delay,
            retry=self.retry,
        )
        self.pool: Optional[ProverPool] = None
        if self.config.pool_workers:
            self.pool = ProverPool(ctx)
        self._sessions: Dict[int, Session] = {}
        self._next_session = 1
        self._workers: List[asyncio.Task] = []
        self._running = False

    # ----- accounts and sessions -----------------------------------------

    def register_account(self, funded: Optional[int] = None) -> str:
        return self.chain.create_account(
            funded=INITIAL_FUNDS if funded is None else funded
        )

    def open_session(
        self,
        asset: DataAsset,
        tenant: str = "seller",
        encryption_proof: Optional[EncryptionProof] = None,
    ) -> Session:
        """Admit a seller listing; phase-1 material is fixed per session.

        With ``verify_phase1 != "skip"`` the session's ``(c_d, pi_p)``
        is produced (unless supplied) and verified here, once — the
        amortisation the per-request driver lacks.  A session whose
        pi_p fails verification is refused outright.
        """
        if asset.uri is None:
            # Tests and benches sell unpublished assets; the node stands
            # in for the storage layer with a synthetic URI.
            asset.uri = "service://session/%d" % self._next_session
        address = self.register_account()
        seller = Seller(self.ctx, asset, address)
        pi_p = encryption_proof
        if self.config.verify_phase1 != "skip":
            if pi_p is None:
                with telemetry.span("service.session.prove", proof="pi_p"):
                    pi_p = prove_encryption(self.ctx, asset)
            with telemetry.span("service.session.verify", proof="pi_p") as sp:
                # Buyers lock against the [k] the session's pi_p links to.
                verified = pi_p.key_commitment == seller.key_commitment and verify_encryption(
                    self.ctx, asset.public_view(self.ctx.srs), pi_p
                )
                sp.set_attr("ok", verified)
            if not verified:
                raise ServiceError("session refused: pi_p failed verification")
        session = Session(
            session_id=self._next_session,
            tenant=tenant,
            seller=seller,
            asset=asset,
        )
        self._sessions[session.session_id] = session
        self._next_session += 1
        if telemetry.enabled():
            telemetry.counter("service.sessions.opened").inc()
        return session

    def close_session(self, session_id: int) -> None:
        self._sessions.pop(session_id, None)

    # ----- lifecycle ------------------------------------------------------

    async def start(self) -> None:
        if self._running:
            return
        self._running = True
        self._workers = [
            asyncio.create_task(self._worker_loop(), name="service-worker-%d" % i)
            for i in range(self.config.concurrency)
        ]

    async def stop(self) -> None:
        self._running = False
        await self.batcher.drain()
        for task in self._workers:
            task.cancel()
        await asyncio.gather(*self._workers, return_exceptions=True)
        self._workers = []
        if self.pool is not None:
            # close() joins the forked worker — a blocking call that
            # would stall every other session on the loop; park it on the
            # default executor instead (tests/test_service.py::TestProverPool::
            # test_the_loop_stays_live_while_the_node_stops).
            loop = asyncio.get_running_loop()
            await loop.run_in_executor(None, self.pool.close)

    # ----- request intake -------------------------------------------------

    def submit(self, request: ExchangeRequest) -> asyncio.Future:
        """Admit one request; returns a future for its outcome.

        Raises :class:`QueueFullError` synchronously when admission
        control sheds the request (global or per-tenant budget).
        """
        if not self._running:
            raise ServiceError("node is not running; call start() first")
        if request.session_id not in self._sessions:
            raise SessionError("unknown session %r" % request.session_id)
        fut: asyncio.Future = asyncio.get_running_loop().create_future()
        self.queue.put_nowait(request.tenant, (request, fut, time.perf_counter()))
        return fut

    async def serve(self, requests: List[ExchangeRequest]) -> List[RequestOutcome]:
        """Submit a batch of requests and await every outcome.

        Shed requests surface as ``RequestOutcome`` entries with reason
        ``"admission rejected: ..."`` rather than exceptions, so the
        result list is positionally aligned with ``requests``.
        """
        slots: List = []
        for request in requests:
            try:
                slots.append(self.submit(request))
            except (QueueFullError, SessionError) as exc:
                slots.append(RequestOutcome(False, None, "admission rejected: %s" % exc))
        results: List[RequestOutcome] = []
        for slot in slots:
            results.append(await slot if isinstance(slot, asyncio.Future) else slot)
        return results

    # ----- pipeline -------------------------------------------------------

    async def _worker_loop(self) -> None:
        while True:
            _tenant, (request, fut, enqueued) = await self.queue.get()
            try:
                outcome = await self._handle(request)
            except Exception as exc:
                # A refund that would not land (ExchangeAbortedError): the
                # caller hears it, as from the synchronous driver, and this
                # worker serves the next request.
                if not fut.done():
                    fut.set_exception(exc)
                continue
            outcome.latency_s = time.perf_counter() - enqueued
            if telemetry.enabled():
                label = (
                    "success"
                    if outcome.success
                    else ("aborted" if outcome.aborted else "rejected")
                )
                telemetry.counter("service.requests", outcome=label).inc()
                telemetry.histogram(
                    "service.request.latency.seconds", LATENCY_BUCKETS
                ).observe(outcome.latency_s)
            if not fut.done():
                fut.set_result(outcome)

    async def _handle(self, request: ExchangeRequest) -> RequestOutcome:
        session = self._sessions.get(request.session_id)
        if session is None:
            return RequestOutcome(False, None, "session closed")
        steps = ExchangeSteps(self.chain, "keysecure", self.retry)
        exchange_id = None
        buyer_address = request.buyer_address or self.register_account(
            funded=2 * request.price
        )
        buyer = Buyer(self.ctx, session.asset.public_view(self.ctx.srs), buyer_address)
        try:
            # Phase 1 (data validation) happened once, in open_session.
            reply = await self._await_buyer(request, buyer, steps)
            if reply is None:
                return RequestOutcome(
                    False, None,
                    "buyer reply timed out after %.3fs" % self.config.request_timeout,
                )
            k_v, h_v = reply
            key_bytes = session.seller.key_commitment.to_bytes()
            receipt = steps.tx(
                buyer_address, self.arbiter, "lock_payment",
                session.seller.address, key_digest(key_bytes), h_v,
                value=request.price, site="chain.lock_payment", noun="payment lock",
            )
            if not receipt.status:
                return RequestOutcome(False, None, "payment lock failed", steps.gas)
            exchange_id = receipt.return_value
            steps.hold(
                buyer_address, self.arbiter, "refund", exchange_id,
                site="chain.refund", noun="buyer refund for exchange %s" % exchange_id,
            )

            # ----- Phase 2: pi_k -----------------------------------------
            with steps.step("prover"):
                if request.bundle is not None:
                    k_c, proof_bytes = request.bundle.masked_key, request.bundle.proof_bytes
                elif self.pool is not None:
                    k_c, proof_bytes = await self.pool.prove_key_negotiation(
                        session.asset, k_v, h_v
                    )
                else:
                    k_c, pi_k = session.seller.key_negotiation_message(k_v, h_v)
                    proof_bytes = pi_k.to_bytes()
            steps.send("exchange.msg.negotiation", "phase-2 message")

            # ----- Batched settlement ------------------------------------
            with steps.step("settlement"):
                settled, gas_share = await self.batcher.settle(
                    exchange_id, k_c, proof_bytes, key_bytes
                )
            steps.gas += gas_share
            if not settled:
                raise ProtocolError("pi_k rejected on chain")
            steps.release()
            masked = self.chain.call_view(self.arbiter, "masked_key", exchange_id)
            plaintext = buyer.recover_plaintext(masked)
            session.exchanges += 1
            return RequestOutcome(True, plaintext, "ok", steps.gas, exchange_id=exchange_id)
        except Exception as exc:
            reason = steps.abort(exc)
            return RequestOutcome(
                False, None, reason, steps.gas, aborted=True, exchange_id=exchange_id
            )

    async def _await_buyer(
        self, request: ExchangeRequest, buyer: Buyer, steps: ExchangeSteps
    ) -> Optional[tuple[int, int]]:
        """The buyer's off-chain (k_v, h_v) delivery over the
        ``exchange.msg.key`` channel, or None once the node's wall-clock
        timeout expires — before any payment is locked."""

        async def _reply() -> tuple[int, int]:
            if request.buyer_delay > 0:
                await asyncio.sleep(request.buyer_delay)
            steps.send("exchange.msg.key", "k_v")
            if request.bundle is not None:
                buyer.k_v = request.bundle.verification_key
                return (
                    request.bundle.verification_key,
                    request.bundle.verification_hash,
                )
            return buyer.choose_verification_key()

        if self.config.request_timeout is None:
            return await _reply()
        try:
            return await asyncio.wait_for(_reply(), timeout=self.config.request_timeout)
        except asyncio.TimeoutError:
            if telemetry.enabled():
                telemetry.counter("service.timeouts").inc()
            return None
