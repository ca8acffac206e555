"""Tests for the marketplace service plane.

Fast, unmarked tests cover the queue's admission/fairness semantics and
the chain-side batch entry points (batched verification, batched
settlement, poisoned-member isolation).  The node-pipeline tests drive
real exchanges end to end through the asyncio node with seller-attached
pi_k bundles (proofs are produced once per session — the node's job
here is serving, not proving); ``TestProverPool`` is where the node proves,
serially on a one-CPU mask and split with the engine's forked helpers on
a wider one.  The ``chaos``-marked class replays the
pipeline under the seeded ``exchange`` fault profile and checks the
safety envelope every exchange driver shares
(``tests/exchange_invariants.py``).
"""

import asyncio
import dataclasses
import itertools
import multiprocessing
import os
import random
import signal
import threading
import time
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import faults, telemetry
from repro.backend import Engine, get_engine, use_engine
from repro.backend import engine as engine_module
from repro.backend.engine import MIN_MSM_POINTS
from repro.contracts.arbiter import key_digest
from repro.core.exchange import build_key_negotiation_circuit, key_negotiation_keys
from repro.core.snark import SnarkContext
from repro.core.tokens import DataAsset
from repro.core.transform_protocol import prove_encryption, verify_encryption
from repro.curve.g1 import G1
from repro.errors import (
    BackendError,
    ExchangeAbortedError,
    ProtocolError,
    QueueFullError,
    ServiceError,
    SessionError,
    TxDroppedError,
)
from repro.faults import FaultPlan
from repro.field.fr import MODULUS as R
from repro.plonk import prover as prover_module
from repro.plonk.circuit import CircuitBuilder
from repro.plonk.keys import DEGREE_MARGIN
from repro.plonk.proof import Proof
from repro.plonk.prover import prove
from repro.plonk.verifier import verify
from repro.primitives.hashing import field_hash
from repro.service import pool as pool_module
from repro.service import (
    ExchangeRequest,
    FairQueue,
    MarketplaceNode,
    NodeConfig,
    ProverPool,
)
from tests.exchange_invariants import (
    assert_safe_end,
    assert_secrets_hidden,
    asset_secrets,
    publishing,
)

PRICE = 5000
FUNDS = 10**9


# ---------------------------------------------------------------------------
# FairQueue: admission control and round-robin fairness
# ---------------------------------------------------------------------------


class TestFairQueue:
    def test_global_bound_rejects(self):
        q = FairQueue(maxsize=2)
        q.put_nowait("a", 1)
        q.put_nowait("b", 2)
        with pytest.raises(QueueFullError):
            q.put_nowait("c", 3)
        assert q.qsize() == 2

    def test_per_tenant_budget_rejects(self):
        q = FairQueue(maxsize=10, per_tenant=2)
        q.put_nowait("a", 1)
        q.put_nowait("a", 2)
        with pytest.raises(QueueFullError):
            q.put_nowait("a", 3)
        # Other tenants are unaffected by tenant a's exhausted budget.
        q.put_nowait("b", 4)
        assert q.qsize() == 3

    def test_round_robin_interleaves_tenants(self):
        q = FairQueue(maxsize=16)
        for i in range(4):
            q.put_nowait("big", "big-%d" % i)
        for i in range(2):
            q.put_nowait("small", "small-%d" % i)

        async def drain():
            return [await q.get() for _ in range(q.qsize())]

        order = asyncio.run(drain())
        tenants = [tenant for tenant, _ in order]
        # The small tenant is served in the first interleavings rather
        # than waiting behind the big tenant's whole backlog.
        assert tenants == ["big", "small", "big", "small", "big", "big"]
        items = [item for tenant, item in order if tenant == "big"]
        assert items == ["big-%d" % i for i in range(4)]  # FIFO per tenant

    @given(
        backlogs=st.dictionaries(
            st.sampled_from(["a", "b", "c", "d", "e", "f", "g", "h"]),
            st.integers(min_value=1, max_value=24),
            min_size=1,
            max_size=8,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_round_robin_never_lags_fair_share(self, backlogs):
        """After any prefix of k dequeues, a tenant with enough backlog
        has been served at least ``floor(k / tenants)`` times — round
        robin never lets anyone lag the fair share by more than one
        cycle of the ring, no matter the arrival pattern."""
        queue = FairQueue(maxsize=1024)
        for tenant in sorted(backlogs):
            for i in range(backlogs[tenant]):
                queue.put_nowait(tenant, (tenant, i))
        total = sum(backlogs.values())
        tenants = len(backlogs)

        async def drain():
            served = {t: 0 for t in backlogs}
            last_index = {t: -1 for t in backlogs}
            for k in range(1, total + 1):
                tenant, (t2, index) = await queue.get()
                assert tenant == t2
                assert index == last_index[tenant] + 1  # FIFO within a tenant
                last_index[tenant] = index
                served[tenant] += 1
                # Ring cycles only get shorter as tenants drain, so k
                # serves always complete >= k // tenants full cycles,
                # and every cycle serves each still-backlogged tenant.
                fair = k // tenants
                for t in backlogs:
                    assert served[t] >= min(backlogs[t], fair), (
                        "tenant %s lagged fair share after %d serves: %r" % (t, k, served)
                    )
            return served

        assert asyncio.run(drain()) == backlogs

    def test_get_waits_for_put(self):
        q = FairQueue(maxsize=4)

        async def scenario():
            getter = asyncio.ensure_future(q.get())
            await asyncio.sleep(0.01)
            assert not getter.done()
            q.put_nowait("t", "x")
            assert await asyncio.wait_for(getter, timeout=1) == ("t", "x")

        asyncio.run(scenario())


# ---------------------------------------------------------------------------
# Shared helpers (the pi_k bundles come from conftest's ``pik_bundles``)
# ---------------------------------------------------------------------------


def _node(snark_ctx, **overrides):
    defaults = dict(
        verify_phase1="skip",
        batch_size=4,
        batch_delay=0.01,
        concurrency=2,
        queue_depth=64,
        per_tenant_depth=None,
    )
    defaults.update(overrides)
    return MarketplaceNode(snark_ctx, NodeConfig(**defaults))


def _requests(session, bundles, count, price=PRICE, tenants=4, **kw):
    return [
        ExchangeRequest(
            session.session_id,
            tenant="tenant-%d" % (i % tenants),
            price=price,
            bundle=bundles[i % len(bundles)],
            **kw,
        )
        for i in range(count)
    ]


# ---------------------------------------------------------------------------
# Chain-side batch entry points
# ---------------------------------------------------------------------------


@pytest.mark.slow
class TestBatchSettlementContracts:
    def _locked(self, snark_ctx, asset, bundles, n):
        """A node plus n locked exchanges (one per bundle, cycling)."""
        node = _node(snark_ctx)
        session = node.open_session(asset, tenant="seller")
        buyer = node.register_account(funded=FUNDS)
        locked = []
        for i in range(n):
            bundle = bundles[i % len(bundles)]
            receipt = node.chain.transact(
                buyer,
                node.arbiter,
                "lock_payment",
                session.seller.address,
                key_digest(session.seller.key_commitment.to_bytes()),
                bundle.verification_hash,
                value=PRICE,
            )
            assert receipt.status
            locked.append((receipt.return_value, bundle))
        return node, session, buyer, locked

    @staticmethod
    def _entry(session, eid, k_c, proof_bytes):
        return (eid, k_c, proof_bytes, session.seller.key_commitment.to_bytes())

    def test_batch_settles_all_valid_members(self, snark_ctx, pik_bundles):
        asset, bundles = pik_bundles
        node, session, buyer, locked = self._locked(snark_ctx, asset, bundles, 3)
        before = node.chain.balance_of(session.seller.address)
        entries = tuple(
            self._entry(session, eid, b.masked_key, b.proof_bytes) for eid, b in locked
        )
        receipt = node.chain.transact(
            node.operator, node.arbiter, "submit_key_batch", entries
        )
        assert receipt.status
        assert receipt.return_value == tuple(eid for eid, _ in locked)
        assert node.chain.balance_of(session.seller.address) == before + 3 * PRICE
        for eid, b in locked:
            assert node.chain.call_view(node.arbiter, "masked_key", eid) == b.masked_key

    def test_poisoned_member_does_not_poison_batchmates(self, snark_ctx, pik_bundles):
        asset, bundles = pik_bundles
        node, session, buyer, locked = self._locked(snark_ctx, asset, bundles, 3)
        before_seller = node.chain.balance_of(session.seller.address)
        before_buyer = node.chain.balance_of(buyer)
        (e0, b0), (e1, b1), (e2, b2) = locked
        entries = (
            self._entry(session, e0, b0.masked_key, b0.proof_bytes),
            # Well-formed proof, wrong public input: fails the fold and
            # the per-proof fallback, but must not drag e0/e2 down.
            self._entry(session, e1, (b1.masked_key + 1) % R, b1.proof_bytes),
            self._entry(session, e2, b2.masked_key, b2.proof_bytes),
        )
        receipt = node.chain.transact(
            node.operator, node.arbiter, "submit_key_batch", entries
        )
        assert receipt.status
        assert receipt.return_value == (e0, e2)
        assert node.chain.balance_of(session.seller.address) == before_seller + 2 * PRICE
        # The poisoned member's exchange stays open: escrow intact and
        # refundable by its buyer, not stranded.
        assert node.chain.call_view(node.arbiter, "exchange_info", e1) is not None
        refund = node.chain.transact(buyer, node.arbiter, "refund", e1)
        assert refund.status
        assert node.chain.balance_of(buyer) == before_buyer + PRICE

    def test_malformed_proof_reported_false_without_revert(self, snark_ctx, pik_bundles):
        asset, bundles = pik_bundles
        node, session, buyer, locked = self._locked(snark_ctx, asset, bundles, 2)
        (e0, b0), (e1, _) = locked
        entries = (
            self._entry(session, e0, b0.masked_key, b0.proof_bytes),
            self._entry(session, e1, 123, b"not a proof"),
        )
        receipt = node.chain.transact(
            node.operator, node.arbiter, "submit_key_batch", entries
        )
        assert receipt.status
        assert receipt.return_value == (e0,)

    def test_duplicate_and_stale_entries_skipped(self, snark_ctx, pik_bundles):
        asset, bundles = pik_bundles
        node, session, buyer, locked = self._locked(snark_ctx, asset, bundles, 1)
        eid, b = locked[0]
        before = node.chain.balance_of(session.seller.address)
        entry = self._entry(session, eid, b.masked_key, b.proof_bytes)
        receipt = node.chain.transact(
            node.operator, node.arbiter, "submit_key_batch", (entry, entry)
        )
        assert receipt.status
        assert receipt.return_value == (eid,)  # settled exactly once
        assert node.chain.balance_of(session.seller.address) == before + PRICE
        # Re-submitting after settlement is a no-op, not a revert.
        receipt = node.chain.transact(
            node.operator, node.arbiter, "submit_key_batch", (entry,)
        )
        assert receipt.status
        assert receipt.return_value == ()

    def test_unreduced_masked_key_is_refused_and_refundable(self, snark_ctx, pik_bundles):
        """k_c + r hashes and evaluates like k_c, so pi_k used to settle
        under it — and the arbiter stored the alias as ``masked_key``.
        One proof, one on-chain statement: the alias fails verification on
        both entry points and the buyer's escrow stays refundable."""
        asset, bundles = pik_bundles
        node, session, buyer, locked = self._locked(snark_ctx, asset, bundles, 2)
        (e0, b0), (e1, b1) = locked
        single = node.chain.transact(
            session.seller.address, node.arbiter, "submit_key",
            *self._entry(session, e0, b0.masked_key + R, b0.proof_bytes),
        )
        assert not single.status and "pi_k verification failed" in single.error
        batch = node.chain.transact(
            node.operator, node.arbiter, "submit_key_batch",
            (
                self._entry(session, e0, b0.masked_key + R, b0.proof_bytes),
                self._entry(session, e1, b1.masked_key, b1.proof_bytes),
            ),
        )
        assert batch.status and batch.return_value == (e1,)
        assert node.chain.call_view(node.arbiter, "masked_key", e0) is None
        before = node.chain.balance_of(buyer)
        assert node.chain.transact(buyer, node.arbiter, "refund", e0).status
        assert node.chain.balance_of(buyer) == before + PRICE

    def test_batch_gas_amortises_the_pairing(self, snark_ctx, pik_bundles):
        asset, bundles = pik_bundles
        node, session, buyer, locked = self._locked(snark_ctx, asset, bundles, 3)
        single = node.chain.transact(
            session.seller.address,
            node.arbiter,
            "submit_key",
            *self._entry(session, locked[0][0], locked[0][1].masked_key, locked[0][1].proof_bytes),
        )
        assert single.status
        rest = tuple(
            self._entry(session, eid, b.masked_key, b.proof_bytes) for eid, b in locked[1:]
        )
        batched = node.chain.transact(
            node.operator, node.arbiter, "submit_key_batch", rest
        )
        assert batched.status and len(batched.return_value) == 2
        assert batched.gas_used // len(rest) < single.gas_used

    def test_calldata_commitment_must_match_the_lock(self, snark_ctx, pik_bundles):
        """The lock stores the digest of [k]; a settlement that names
        another point — another token's [k], the identity, or the
        proof's own key under a lock made for another — reverts, and
        the escrow stays refundable."""
        asset, bundles = pik_bundles
        node, session, buyer, locked = self._locked(snark_ctx, asset, bundles, 1)
        eid, b = locked[0]
        other = DataAsset.create([1], key=5, nonce=6).key_commitment(snark_ctx.srs)
        for key_bytes in (other.to_bytes(), G1.identity().to_bytes(), b"\x01" * 64):
            single = node.chain.transact(
                session.seller.address, node.arbiter, "submit_key",
                eid, b.masked_key, b.proof_bytes, key_bytes,
            )
            assert not single.status and "does not match the lock" in single.error
        # A lock made against another token's [k]: the honest proof under
        # the seller's [k] cannot settle it, whichever point is named.
        foreign = node.chain.transact(
            buyer, node.arbiter, "lock_payment", session.seller.address,
            key_digest(other.to_bytes()), b.verification_hash, value=PRICE,
        ).return_value
        for key_bytes in (other.to_bytes(), session.seller.key_commitment.to_bytes()):
            receipt = node.chain.transact(
                session.seller.address, node.arbiter, "submit_key",
                foreign, b.masked_key, b.proof_bytes, key_bytes,
            )
            assert not receipt.status
        before = node.chain.balance_of(buyer)
        assert node.chain.transact(buyer, node.arbiter, "refund", eid).status
        assert node.chain.transact(buyer, node.arbiter, "refund", foreign).status
        assert node.chain.balance_of(buyer) == before + 2 * PRICE

    def test_batch_member_with_wrong_commitment_fails_alone(self, snark_ctx, pik_bundles):
        asset, bundles = pik_bundles
        node, session, buyer, locked = self._locked(snark_ctx, asset, bundles, 3)
        (e0, b0), (e1, b1), (e2, b2) = locked
        other = DataAsset.create([1], key=5, nonce=6).key_commitment(snark_ctx.srs)
        entries = (
            self._entry(session, e0, b0.masked_key, b0.proof_bytes),
            (e1, b1.masked_key, b1.proof_bytes, other.to_bytes()),
            self._entry(session, e2, b2.masked_key, b2.proof_bytes),
        )
        receipt = node.chain.transact(node.operator, node.arbiter, "submit_key_batch", entries)
        assert receipt.status and receipt.return_value == (e0, e2)
        assert node.chain.call_view(node.arbiter, "exchange_info", e1) is not None
        assert node.chain.transact(buyer, node.arbiter, "refund", e1).status

    def test_one_keys_batch_hands_the_verifier_one_point(self, snark_ctx, pik_bundles, monkeypatch):
        """Members locked against one digest share one point object, so the
        fold multiplies [k] once and the batch pays one term for it."""
        asset, bundles = pik_bundles
        node, session, buyer, locked = self._locked(snark_ctx, asset, bundles, 3)
        seen = []
        verify_batch = type(node.verifier).verify_batch

        def spy(self, items):
            seen.append({id(item[2]) for item in items})
            return verify_batch(self, items)

        monkeypatch.setattr(type(node.verifier), "verify_batch", spy)
        entries = tuple(self._entry(session, eid, b.masked_key, b.proof_bytes) for eid, b in locked)
        receipt = node.chain.transact(node.operator, node.arbiter, "submit_key_batch", entries)
        assert receipt.status and len(receipt.return_value) == 3
        assert [len(ids) for ids in seen] == [1]


# ---------------------------------------------------------------------------
# Node pipeline
# ---------------------------------------------------------------------------


@pytest.mark.slow
class TestNodePipeline:
    def test_end_to_end_with_bundles(self, snark_ctx, pik_bundles):
        asset, bundles = pik_bundles

        async def scenario():
            node = _node(snark_ctx)
            session = node.open_session(asset, tenant="seller")
            seller_before = node.chain.balance_of(session.seller.address)
            await node.start()
            try:
                outcomes = await node.serve(_requests(session, bundles, 6))
            finally:
                await node.stop()
            assert all(o.success for o in outcomes)
            assert all(o.plaintext == asset.plaintext for o in outcomes)
            assert {o.exchange_id for o in outcomes} == set(
                o.exchange_id for o in outcomes
            )  # distinct ids
            assert (
                node.chain.balance_of(session.seller.address)
                == seller_before + 6 * PRICE
            )
            # Settlement really was batched: fewer flushes than members.
            assert node.batcher.batches_flushed < 6

        asyncio.run(scenario())

    def test_queue_full_requests_shed_at_the_door(self, snark_ctx, pik_bundles):
        asset, bundles = pik_bundles

        async def scenario():
            node = _node(snark_ctx, queue_depth=2, concurrency=1)
            session = node.open_session(asset, tenant="seller")
            await node.start()
            try:
                # serve() admits synchronously without yielding to the
                # loop, so exactly queue_depth requests are accepted.
                outcomes = await node.serve(_requests(session, bundles, 5))
            finally:
                await node.stop()
            rejected = [o for o in outcomes if "admission rejected" in o.reason]
            succeeded = [o for o in outcomes if o.success]
            assert len(rejected) == 3
            assert len(succeeded) == 2
            assert all(o.gas_used == 0 for o in rejected)

        asyncio.run(scenario())

    def test_per_tenant_budget_protects_other_tenants(self, snark_ctx, pik_bundles):
        asset, bundles = pik_bundles

        async def scenario():
            node = _node(snark_ctx, per_tenant_depth=1, concurrency=1)
            session = node.open_session(asset, tenant="seller")
            await node.start()
            try:
                flood = _requests(session, bundles, 3, tenants=1)
                other = _requests(session, bundles, 1, tenants=1)
                for request in other:
                    request.tenant = "polite-tenant"
                outcomes = await node.serve(flood + other)
            finally:
                await node.stop()
            # The flooding tenant loses its overflow; the polite tenant
            # is untouched by the flood.
            assert sum("admission rejected" in o.reason for o in outcomes[:3]) == 2
            assert outcomes[3].success

        asyncio.run(scenario())

    def test_slow_buyer_times_out_without_escrow(self, snark_ctx, pik_bundles):
        asset, bundles = pik_bundles

        async def scenario():
            node = _node(snark_ctx, request_timeout=0.05)
            session = node.open_session(asset, tenant="seller")
            buyer = node.register_account(funded=FUNDS)
            seller_before = node.chain.balance_of(session.seller.address)
            await node.start()
            try:
                slow = ExchangeRequest(
                    session.session_id,
                    tenant="slow",
                    price=PRICE,
                    bundle=bundles[0],
                    buyer_address=buyer,
                    buyer_delay=0.5,
                )
                fast = _requests(session, bundles, 2)
                outcomes = await node.serve([slow] + fast)
            finally:
                await node.stop()
            assert not outcomes[0].success
            assert "timed out" in outcomes[0].reason
            assert outcomes[0].exchange_id is None  # expired before any lock
            assert node.chain.balance_of(buyer) == FUNDS  # nothing escrowed
            assert all(o.success for o in outcomes[1:])  # node kept serving
            assert (
                node.chain.balance_of(session.seller.address)
                == seller_before + 2 * PRICE
            )

        asyncio.run(scenario())

    def test_session_policy_verifies_pi_p_once_at_open(
        self, snark_ctx, pik_bundles, monkeypatch
    ):
        """Default policy: a pi_p that does not verify never gets a session,
        and a request on a good session does not verify it again."""
        asset, bundles = pik_bundles
        pi_p = prove_encryption(snark_ctx, asset)
        forged = dataclasses.replace(
            pi_p, proof=pi_p.proof.replace(a_bar=(pi_p.proof.a_bar + 1) % R)
        )
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return verify_encryption(*args, **kwargs)

        monkeypatch.setattr("repro.service.node.verify_encryption", counting)
        monkeypatch.setattr("repro.core.exchange.verify_encryption", counting)

        async def scenario():
            node = _node(snark_ctx, verify_phase1="session")
            with pytest.raises(ServiceError, match="pi_p failed verification"):
                node.open_session(asset, encryption_proof=forged)
            session = node.open_session(asset, encryption_proof=pi_p)
            assert len(calls) == 2
            await node.start()
            try:
                outcomes = await node.serve(_requests(session, bundles, 3))
            finally:
                await node.stop()
            assert all(o.success for o in outcomes)
            assert len(calls) == 2  # one per open_session, none per request

        asyncio.run(scenario())

    def test_unknown_phase1_policy_is_refused(self):
        with pytest.raises(ServiceError, match="verify_phase1"):
            NodeConfig(verify_phase1="per-request")

    @pytest.mark.parametrize("workers", [-1, 2])
    def test_a_pool_of_other_than_one_worker_is_refused(self, workers):
        with pytest.raises(ServiceError, match="pool_workers"):
            NodeConfig(pool_workers=workers)

    def test_prover_failure_after_the_lock_refunds_the_buyer(self, snark_ctx, pik_bundles):
        """Anything that breaks phase 2 once the payment is locked — not
        only a ``ProtocolError`` — must drive the refund: the escrow of a
        request whose prover died used to stay in the arbiter for ever."""
        asset, _ = pik_bundles

        class _BrokenPool:
            async def prove_key_negotiation(self, asset, k_v, h_v):
                raise BackendError("helper pipe closed")

            def close(self):
                pass

        async def scenario():
            node = _node(snark_ctx)
            node.pool = _BrokenPool()
            session = node.open_session(asset, tenant="seller")
            buyer = node.register_account(funded=FUNDS)
            await node.start()
            try:
                request = ExchangeRequest(
                    session.session_id, tenant="t", price=PRICE, buyer_address=buyer
                )
                (outcome,) = await node.serve([request])
            finally:
                await node.stop()
            assert (outcome.success, outcome.aborted) == (False, True)
            assert "prover failed" in outcome.reason and "BackendError" in outcome.reason
            assert outcome.exchange_id is not None
            assert node.chain.balance_of(buyer) == FUNDS

        asyncio.run(scenario())

    def test_unlandable_refund_fails_its_request_not_the_worker(
        self, snark_ctx, pik_bundles, monkeypatch
    ):
        """A refund that never lands is the one unsafe end: the request's
        future carries the ExchangeAbortedError the synchronous driver
        raises, and the worker goes on to serve the next request (it used
        to die, leaving both futures unresolved)."""
        asset, bundles = pik_bundles
        node = _node(snark_ctx, concurrency=1, batch_size=1)
        transact = node.chain.transact

        def refunds_dropped(sender, contract, method, *args, **kwargs):
            if method == "refund":
                raise TxDroppedError("refund dropped")
            return transact(sender, contract, method, *args, **kwargs)

        monkeypatch.setattr(node.chain, "transact", refunds_dropped)

        async def scenario():
            session = node.open_session(asset, tenant="seller")
            tampered = dataclasses.replace(
                bundles[0], masked_key=(bundles[0].masked_key + 1) % R
            )
            await node.start()
            try:
                poisoned = node.submit(
                    ExchangeRequest(session.session_id, tenant="t", price=PRICE, bundle=tampered)
                )
                valid = node.submit(
                    ExchangeRequest(session.session_id, tenant="t", price=PRICE, bundle=bundles[1])
                )
                with pytest.raises(ExchangeAbortedError, match="buyer refund for exchange"):
                    await asyncio.wait_for(poisoned, 5)
                outcome = await asyncio.wait_for(valid, 5)
            finally:
                await node.stop()
            assert outcome.success and outcome.plaintext == asset.plaintext

        asyncio.run(scenario())

    def test_unknown_session_rejected(self, snark_ctx, pik_bundles):
        asset, bundles = pik_bundles

        async def scenario():
            node = _node(snark_ctx)
            await node.start()
            try:
                with pytest.raises(SessionError):
                    node.submit(ExchangeRequest(999, tenant="t", price=PRICE))
            finally:
                await node.stop()

        asyncio.run(scenario())

    def test_submit_requires_running_node(self, snark_ctx, pik_bundles):
        asset, _ = pik_bundles

        async def scenario():
            node = _node(snark_ctx)
            session = node.open_session(asset)
            with pytest.raises(ServiceError):
                node.submit(ExchangeRequest(session.session_id, tenant="t", price=1))

        asyncio.run(scenario())


# ---------------------------------------------------------------------------
# Chaos: the pipeline under the seeded `exchange` fault profile
# ---------------------------------------------------------------------------


def _children():
    return set(multiprocessing.active_children())


def _segments():
    """Names under ``/dev/shm``: the pool and its helpers create none."""
    return set(os.listdir("/dev/shm"))


def _children_of(pid):
    """Pids ``pid`` forked and has not reaped."""
    try:
        with open("/proc/%d/task/%d/children" % (pid, pid)) as fh:
            return [int(child) for child in fh.read().split()]
    except FileNotFoundError:
        return []


def _helper_pids(pool):
    """The helpers the pool handed its worker: this process's children."""
    return [proc.pid for proc in pool._worker.handed]


def _alive(pid):
    """Running; a zombie nobody is left to reap counts as gone."""
    try:
        with open("/proc/%d/stat" % pid) as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


async def _in_flight(pool):
    """Wait until the worker has a request (its proof is running) and
    return the pids of the helpers it proves on."""
    for _ in range(1000):
        if pool._worker.sent > pool._worker.read:
            return _helper_pids(pool)
        await asyncio.sleep(0.01)
    raise AssertionError("no request reached worker %d" % pool._worker.proc.pid)


@pytest.fixture(scope="module")
def serial_engine():
    """A helper-less engine, warm across the module's tests: the
    reference the split is checked against."""
    return Engine()


def _prove_args(snark_ctx, asset, k_v):
    c_k = asset.key_commitment(snark_ctx.srs)
    return (snark_ctx, asset.key, asset.key_blinder, c_k, k_v, field_hash(k_v))


def _pik_witness(snark_ctx, asset, k_v):
    """The pi_k proving key and assignment a worker builds for ``k_v``."""
    builder = CircuitBuilder()
    build_key_negotiation_circuit(
        builder, (asset.key + k_v) % R, asset.key_commitment(snark_ctx.srs),
        field_hash(k_v), asset.key, asset.key_blinder, k_v,
    )
    layout, assignment = builder.compile()
    return snark_ctx.keys_for(layout).pk, assignment


def _pik_verifies(snark_ctx, asset, k_v, result):
    k_c, proof_bytes = result
    statement = [k_c, field_hash(k_v)]
    vk = key_negotiation_keys(snark_ctx).vk
    return verify(vk, statement, Proof.from_bytes(proof_bytes), asset.key_commitment(snark_ctx.srs))


@pytest.mark.slow
@pytest.mark.usefixtures("lone_thread_at_fork")
class TestProverPool:
    """The pool's one worker proves serially on a one-CPU mask and splits
    every commitment with the helpers the parent's engine forked when
    cores are spare, one set per host; either way the proof is the same
    proof, a dead worker costs only its own request, nothing outlives
    ``close()`` or a failed start, and nothing but the forking thread is
    alive at any fork."""

    @pytest.mark.parametrize("mask, helpers", [(1, 0), (2, 1), (5, 4)])
    def test_helpers_are_chosen_from_the_cpu_mask(
        self, snark_ctx, pik_bundles, cpus, mask, helpers
    ):
        """The parent's engine forks one helper per spare core at the
        warm-up and hands them to the worker, which proves on them and
        forks none: the host runs the worker and that one set."""
        asset, _ = pik_bundles
        cpus(mask)
        before, segments, threads = _children(), _segments(), threading.active_count()

        async def prove_twice(pool):
            for k_v in (1, 2):
                await pool.prove_key_negotiation(asset, k_v, field_hash(k_v))

        with ProverPool(snark_ctx) as pool:
            asyncio.run(prove_twice(pool))
            assert threading.active_count() == threads  # replies come through the loop
            worker, handed = pool._worker.proc, pool._worker.handed
            assert _children() - before == {worker, *handed}
            assert len(handed) == pool.helpers == helpers
            assert _children_of(worker.pid) == []
            assert get_engine().live_helpers() == 0  # handed over, none kept
            pids = [worker.pid] + _helper_pids(pool)
        get_engine().close()
        assert _children() == before
        assert not [pid for pid in pids if _alive(pid)]
        assert _segments() <= segments

    def test_pooled_proof_settles_through_the_node(self, snark_ctx, pik_bundles, cpus):
        """Three exchanges proven in the pool settle, and the node does no
        wide MSM of its own while serving them: its engine records no
        window-table lookup."""
        asset, _ = pik_bundles
        cpus(2)
        before, segments = _children(), _segments()

        async def scenario(node):
            session = node.open_session(asset, tenant="seller")
            await node.start()
            try:
                requests = [
                    ExchangeRequest(session.session_id, tenant="t", price=PRICE)
                    for _ in range(3)
                ]
                outcomes = await node.serve(requests)
                assert node.pool.helpers == 1
            finally:
                await node.stop()
            return outcomes

        node = _node(snark_ctx, pool_workers=1, concurrency=1, batch_size=1)
        with telemetry.use_level("on"):
            telemetry.reset_metrics()
            outcomes = asyncio.run(scenario(node))
            counters = telemetry.registry().counter_values()
            telemetry.reset_metrics()
        assert all(o.success and o.plaintext == asset.plaintext for o in outcomes)
        assert counters["service.pool.jobs"] == 3
        assert not [key for key in counters if "cache=msm_window" in key]
        assert _children() == before
        assert _segments() <= segments

    def test_wrong_h_v_raises_protocol_error_from_the_worker(
        self, snark_ctx, pik_bundles, cpus
    ):
        asset, _ = pik_bundles
        cpus(1)

        async def scenario():
            with ProverPool(snark_ctx) as pool:
                with pytest.raises(ProtocolError, match="h_v"):
                    await pool.prove_key_negotiation(asset, 77, field_hash(77) + 1)

        asyncio.run(scenario())

    def test_warm_up_covers_the_blinding_margin(self, snark_ctx, pik_bundles, cpus):
        """Every commitment of a worker's first proof finds its window
        table complete (n + margin rows): the pool warms them before it
        forks, so a worker on one CPU builds no rows privately.
        ``_prove_pik_job`` run here sees exactly what a worker inherits."""
        asset, _ = pik_bundles
        cpus(1)
        with ProverPool(snark_ctx):
            with telemetry.use_level("on"):
                telemetry.reset_metrics()
                result = pool_module._prove_pik_job(_prove_args(snark_ctx, asset, 4242))
                counters = telemetry.registry().counter_values()
                telemetry.reset_metrics()
        assert _pik_verifies(snark_ctx, asset, 4242, result)
        assert counters.get("engine.cache.misses{cache=msm_window}", 0) == 0
        assert counters["engine.cache.hits{cache=msm_window}"] == 9

    def test_each_window_table_row_is_built_once(
        self, snark_ctx, pik_bundles, cpus, monkeypatch
    ):
        """pi_k keys generated on the process's engine, then a pool and its
        first proof, on two CPUs: key generation forks the engine's helper
        and builds n rows between the two processes, the pool warms the
        margin rows on the same two, and the worker proves on that helper
        and the rows it inherited, so n + DEGREE_MARGIN + 1 rows (t_hi's
        degree is n + DEGREE_MARGIN) are built on the host in all (counted
        across processes)."""
        asset, _ = pik_bundles
        cpus(2)
        built = multiprocessing.Value("q", 0)
        real_build = engine_module.build_window_tables

        def counted(points, c):
            with built.get_lock():
                built.value += len(points)
            return real_build(points, c)

        monkeypatch.setattr(engine_module, "build_window_tables", counted)
        ctx = SnarkContext(snark_ctx.srs)
        n = key_negotiation_keys(ctx).layout.n
        with ProverPool(ctx) as pool:
            assert pool.helpers == 1
            result = asyncio.run(pool.prove_key_negotiation(asset, 5151, field_hash(5151)))
        assert built.value == n + DEGREE_MARGIN + 1
        assert _pik_verifies(snark_ctx, asset, 5151, result)

    def test_a_reforked_worker_proves_under_its_own_pool(self, snark_ctx, pik_bundles, cpus):
        """Pools A and B on SRSs with different tau: A's worker, killed
        after B is built and re-forked, still proves under A's keys."""
        asset, _ = pik_bundles
        cpus(1)
        n = key_negotiation_keys(snark_ctx).layout.n
        other = SnarkContext.with_fresh_srs(n + DEGREE_MARGIN, tau=0xBADC0DE)

        async def scenario(a):
            os.kill(a._worker.proc.pid, signal.SIGKILL)
            a._worker.proc.join()
            return await asyncio.wait_for(a.prove_key_negotiation(asset, 91, field_hash(91)), 120)

        with ProverPool(snark_ctx) as a, ProverPool(other):
            result = asyncio.run(scenario(a))
        assert _pik_verifies(snark_ctx, asset, 91, result)

    def test_split_msm_equals_serial_on_the_prover_lengths(self, snark_ctx, serial_engine):
        """The property the split rests on, at the lengths a pi_k proof
        commits to (n, n + 2, n + 3) and over the scalars that break
        reductions: 0, r - 1 and values the caller did not reduce."""
        n = key_negotiation_keys(snark_ctx).layout.n
        serial, rng = serial_engine, random.Random(22)
        with Engine(helpers=2) as split:
            for length in (n, n + 2, n + 3, n + DEGREE_MARGIN):
                scalars = [
                    rng.choice([0, 1, R - 1, R, R + rng.randrange(R), rng.randrange(R)])
                    for _ in range(length)
                ]
                got = split.msm_srs(snark_ctx.srs, scalars)
                assert split.live_helpers() == 2
                want = serial.msm_srs(snark_ctx.srs, scalars)
                assert G1.from_jacobian(got) == G1.from_jacobian(want)

    def test_unblinded_proof_is_byte_identical_under_the_split(
        self, snark_ctx, pik_bundles, serial_engine
    ):
        asset, _ = pik_bundles
        pk, assignment = _pik_witness(snark_ctx, asset, 31337)
        with Engine(helpers=1) as split, use_engine(split):
            proof = prove(pk, assignment, blinding=False)
            assert split.live_helpers() == 1
        with use_engine(serial_engine):
            assert proof.to_bytes() == prove(pk, assignment, blinding=False).to_bytes()

    @pytest.mark.parametrize("mask", [1, 2])
    def test_pinned_blinders_give_the_serial_proof_across_the_pool(
        self, snark_ctx, pik_bundles, cpus, monkeypatch, serial_engine, mask
    ):
        """With the blinder stream pinned before the fork, the worker's
        proof — on two CPUs split with the helper the parent's engine
        forked, filled with its half of the rows and handed over — is the
        bytes a serial engine proves here from the same stream."""
        asset, _ = pik_bundles
        cpus(mask)
        k_v = 4343

        def pin_blinders():
            stream = itertools.count(1000003, 7919)
            monkeypatch.setattr(
                prover_module, "random_scalar", lambda nonzero=False: next(stream)
            )

        pin_blinders()
        with ProverPool(snark_ctx) as pool:
            assert (get_engine().live_helpers(), pool.helpers) == (0, mask - 1)
            k_c, pooled = asyncio.run(pool.prove_key_negotiation(asset, k_v, field_hash(k_v)))
            assert pool.helpers == mask - 1
        pin_blinders()
        pk, assignment = _pik_witness(snark_ctx, asset, k_v)
        with use_engine(serial_engine):
            assert pooled == prove(pk, assignment).to_bytes()

    def test_killed_helpers_cost_the_split_not_the_proof(self, snark_ctx, pik_bundles, cpus):
        """SIGKILL one of the worker's helpers while a proof is running and
        the other between proofs: both proofs verify, the worker ends up
        unsplit, the pool says so, and ``close()`` still leaves nothing
        behind."""
        asset, _ = pik_bundles
        cpus(3)
        before = _children()

        async def scenario(pool):
            running = asyncio.ensure_future(
                pool.prove_key_negotiation(asset, 501, field_hash(501))
            )
            first, second = await _in_flight(pool)
            os.kill(first, signal.SIGKILL)
            assert _pik_verifies(snark_ctx, asset, 501, await asyncio.wait_for(running, 120))
            assert pool.helpers == 1
            os.kill(second, signal.SIGKILL)
            result = await asyncio.wait_for(
                pool.prove_key_negotiation(asset, 502, field_hash(502)), 120
            )
            assert _pik_verifies(snark_ctx, asset, 502, result)
            assert pool.helpers == 0
            return pool._worker.proc.pid, first, second

        with telemetry.use_level("on"):
            telemetry.reset_metrics()
            with ProverPool(snark_ctx) as pool:
                pids = asyncio.run(scenario(pool))
            counters = telemetry.registry().counter_values()
            telemetry.reset_metrics()
        assert counters["service.pool.helpers_lost"] == 2
        assert "service.pool.restarts" not in counters
        assert _children() == before  # the pool joined the helpers it handed over
        assert not [pid for pid in pids if _alive(pid)]

    def test_a_killed_worker_aborts_its_request_and_is_reforked(
        self, snark_ctx, pik_bundles, cpus, lone_thread_at_fork
    ):
        """SIGKILL the only worker mid-proof behind a one-coroutine node:
        its request aborts with the buyer refunded, the worker is
        re-forked (inside the running loop, with no other thread alive)
        on a fresh helper the parent's engine forks once the dead worker's
        has exited, the next request proves on it without the key leaving
        the seller, and ``stop()`` leaves no process of either
        generation."""
        asset, _ = pik_bundles
        cpus(2)
        before = _children()

        async def scenario():
            node = _node(snark_ctx, pool_workers=1, concurrency=1, batch_size=1)
            session = node.open_session(asset, tenant="seller")
            buyers = [node.register_account(funded=FUNDS) for _ in range(2)]
            start = dict.fromkeys(buyers, FUNDS)
            start[session.seller.address] = node.chain.balance_of(session.seller.address)
            requests = [
                ExchangeRequest(session.session_id, tenant="t", price=PRICE, buyer_address=b)
                for b in buyers
            ]
            worker = node.pool._worker
            pids = [worker.proc.pid]
            await node.start()
            try:
                with publishing(node.chain) as published:
                    killed = node.submit(requests[0])
                    pids += await _in_flight(node.pool)
                    os.kill(pids[0], signal.SIGKILL)
                    killed = await asyncio.wait_for(killed, 10)
                    served = await asyncio.wait_for(node.submit(requests[1]), 120)
                assert node.pool.helpers == 1
                pids += [worker.proc.pid] + _helper_pids(node.pool)
            finally:
                await node.stop()
            runs = list(zip((killed, served), buyers))
            return node, session.seller.address, start, runs, pids, published

        with telemetry.use_level("on"):
            telemetry.reset_metrics()
            node, seller, start, runs, pids, published = asyncio.run(scenario())
            restarts = telemetry.registry().counter_values()["service.pool.restarts"]
            telemetry.reset_metrics()
        (killed, _), (served, _) = runs
        assert (killed.success, killed.aborted) == (False, True)
        assert "BackendError" in killed.reason and "died" in killed.reason
        assert served.success
        assert restarts == 1
        # A helper (at the warm-up) and the worker, twice.
        assert len(lone_thread_at_fork) == 4
        assert_safe_end(
            node.chain, node.arbiter, node.chain.receipts, runs, seller, PRICE, start,
            plaintext=asset.plaintext,
        )
        run = SimpleNamespace(chain=node.chain, runs=runs, published=published)
        assert_secrets_hidden(run, asset_secrets(asset))
        assert len(set(pids)) == 4
        assert _children() == before
        assert not [pid for pid in pids if _alive(pid)]

    def test_a_cancelled_caller_leaves_its_worker_in_step(self, snark_ctx, pik_bundles, cpus):
        """The reply a cancelled caller never read is dropped by the
        worker's next caller, which gets the proof for its own k_v."""
        asset, _ = pik_bundles
        cpus(2)

        async def scenario(pool):
            cancelled = asyncio.ensure_future(
                pool.prove_key_negotiation(asset, 71, field_hash(71))
            )
            await _in_flight(pool)
            cancelled.cancel()
            with pytest.raises(asyncio.CancelledError):
                await cancelled
            return await asyncio.wait_for(
                pool.prove_key_negotiation(asset, 72, field_hash(72)), 120
            )

        with ProverPool(snark_ctx) as pool:
            result = asyncio.run(scenario(pool))
        assert _pik_verifies(snark_ctx, asset, 72, result)

    def test_stopping_mid_proof_leaves_no_process(self, snark_ctx, pik_bundles, cpus):
        asset, _ = pik_bundles
        cpus(2)
        before = _children()

        async def scenario():
            node = _node(snark_ctx, pool_workers=1, concurrency=1, batch_size=1)
            session = node.open_session(asset, tenant="seller")
            worker = node.pool._worker
            await node.start()
            try:
                node.submit(ExchangeRequest(session.session_id, tenant="t", price=PRICE))
                return [worker.proc.pid] + await _in_flight(node.pool)
            finally:
                await asyncio.wait_for(node.stop(), 30)

        pids = asyncio.run(scenario())
        assert _children() == before
        assert not [pid for pid in pids if _alive(pid)]

    def test_the_loop_stays_live_while_the_node_stops(self, snark_ctx, pik_bundles, cpus):
        """``stop()`` joins the pool's worker, whose proof is still in
        flight, off the event loop: a ticker started before ``stop()``
        ticks at least every 100 ms until it returns."""
        asset, _ = pik_bundles
        cpus(1)

        async def tick(ticks):
            while True:
                ticks.append(time.perf_counter())
                await asyncio.sleep(0.01)

        async def scenario():
            node = _node(snark_ctx, pool_workers=1, concurrency=1, batch_size=1)
            session = node.open_session(asset, tenant="seller")
            worker = node.pool._worker
            await node.start()
            node.submit(ExchangeRequest(session.session_id, tenant="t", price=PRICE))
            for _ in range(1000):  # until the proof is in flight
                if worker.sent:
                    break
                await asyncio.sleep(0.01)
            ticks = []
            ticker = asyncio.ensure_future(tick(ticks))
            await asyncio.sleep(0)
            await asyncio.wait_for(node.stop(), 30)
            ticks.append(time.perf_counter())
            ticker.cancel()
            return ticks

        ticks = asyncio.run(scenario())
        assert ticks[-1] - ticks[0] > 0.2  # stop() waited for the proof
        assert max(b - a for a, b in zip(ticks, ticks[1:])) < 0.1

    def test_a_failed_fork_leaks_no_process(self, snark_ctx, cpus, monkeypatch):
        """A pool whose worker fails to fork raises and hands nothing
        over: the helper its warm-up forked stays the engine's, which
        reaps it, and nothing else is left running."""
        cpus(2)
        before = _children()
        start, forks = multiprocessing.context.ForkProcess.start, []

        def worker_fork_fails(process):
            forks.append(process)
            if len(forks) == 2:  # the helper forks first, then the worker
                raise OSError("fork failed")
            start(process)

        monkeypatch.setattr(multiprocessing.context.ForkProcess, "start", worker_fork_fails)
        with pytest.raises(OSError, match="fork failed") as excinfo:
            ProverPool(snark_ctx)
        helpers = {helper.proc for helper in get_engine()._links}
        leaked = _children() - before - helpers
        get_engine().close()
        leaked |= _children() - before
        for process in leaked:  # a failure here must not hang the session's exit
            process.kill()
            process.join(10)
        assert len(helpers) == 1
        assert not leaked, "processes outlived %r" % excinfo.value

    def test_a_helper_forked_after_the_worker_does_not_hold_it_open(
        self, snark_ctx, cpus
    ):
        """A wide MSM in the parent once the pool exists (a session that
        proves pi_p) forks the engine a new helper, which inherits the
        pool's end of the worker's pipe; ``close()`` still reaches the
        worker at once."""
        cpus(2)
        before = _children()
        pool = ProverPool(snark_ctx)
        get_engine().msm_srs(snark_ctx.srs, [1] * MIN_MSM_POINTS)
        assert get_engine().live_helpers() == 1
        started = time.perf_counter()
        pool.close()
        assert time.perf_counter() - started < 5
        get_engine().close()
        assert _children() == before


@pytest.mark.chaos
@pytest.mark.slow
class TestServiceChaos:
    @pytest.mark.parametrize("offset", (0, 1, 2))
    def test_no_stranded_escrow_under_exchange_profile(
        self, snark_ctx, pik_bundles, chaos_seed, offset
    ):
        asset, bundles = pik_bundles

        async def scenario():
            # concurrency=1 keeps the fault-site visit order sequential.
            node = _node(snark_ctx, concurrency=1, batch_size=3)
            session = node.open_session(asset, tenant="seller")
            seller_addr = session.seller.address
            seller_before = node.chain.balance_of(seller_addr)
            buyers = [node.register_account(funded=FUNDS) for _ in range(9)]
            requests = [
                ExchangeRequest(
                    session.session_id,
                    tenant="tenant-%d" % (i % 3),
                    price=PRICE,
                    bundle=bundles[i % len(bundles)],
                    buyer_address=buyers[i],
                )
                for i in range(9)
            ]
            await node.start()
            try:
                with publishing(node.chain) as published, faults.use_plan(
                    FaultPlan.profile("exchange", seed=chaos_seed + offset)
                ):
                    outcomes = await node.serve(requests)
            finally:
                await node.stop()
            return node, seller_addr, seller_before, buyers, outcomes, published

        node, seller_addr, seller_before, buyers, outcomes, published = asyncio.run(scenario())
        start = dict.fromkeys(buyers, FUNDS)
        start[seller_addr] = seller_before
        runs = list(zip(outcomes, buyers))
        assert_safe_end(
            node.chain, node.arbiter, node.chain.receipts, runs,
            seller_addr, PRICE, start, plaintext=asset.plaintext,
        )
        run = SimpleNamespace(chain=node.chain, runs=runs, published=published)
        secrets = (*asset_secrets(asset), *(b.verification_key for b in bundles))
        assert_secrets_hidden(run, secrets)
