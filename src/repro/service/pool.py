"""Persistent warm prover pool for the service node.

CPU-bound pi_k proving is the one step of an exchange that cannot share
the node's event loop without stalling every other request, so it is
dispatched to a pool of long-lived forked worker processes.  The win
over per-call pools is *cache residency*: the parent warms the pi_k
circuit keys (and therefore the SRS Jacobian views and fixed-window
tables inside the engine) **before** forking, so every worker inherits
the warmed caches by copy-on-write and the first proof of each worker is
already a warm proof.

A proof is 80% nine fixed-table MSMs, so when the process may run on at
least twice as many CPUs as the pool has workers (``os.sched_getaffinity``;
nothing a caller sets) every worker gets the spare cores as *helpers*: its
:class:`~repro.backend.split.SplitEngine` keeps one shard of each MSM
and sends the others to forked processes holding the same window tables.
Pool workers are daemonic and may not fork, so the helpers are forked
here, in the pool's parent, after the tables are warm and before the
pool, and each worker claims its share of the inherited pipes.  A helper
that dies costs that worker its split, not the proof.  With no core to
spare the engine has no helpers and is the serial engine.

The asyncio bridge is callback-based: ``apply_async`` completion fires
on the pool's result-handler thread, which hops back onto the node's
event loop via ``call_soon_threadsafe`` to resolve the awaited future.
"""

from __future__ import annotations

import asyncio
import multiprocessing
import os
import time
from types import TracebackType
from typing import Any, Optional

from repro import telemetry
from repro.backend.split import SplitEngine
from repro.core.exchange import build_key_negotiation_circuit, key_negotiation_keys
from repro.core.snark import SnarkContext
from repro.core.tokens import DataAsset
from repro.errors import ProtocolError, ServiceError
from repro.field.fr import MODULUS as R
from repro.plonk.circuit import CircuitBuilder
from repro.plonk.keys import DEGREE_MARGIN
from repro.plonk.prover import prove
from repro.primitives.hashing import field_hash
from repro.telemetry.metrics import LATENCY_BUCKETS

#: Forked-worker state: populated in the parent immediately before the
#: pool is created so the fork snapshot carries the warmed context.
_WORKER_STATE: dict[str, Any] = {}


def _claim_helpers(taken: Any, workers: int) -> None:
    """Pool initializer: this worker takes the next slot's helpers (a
    replacement for a dead worker finds none left and proves unsplit)."""
    with taken.get_lock():
        slot = taken.value
        taken.value += 1
    _WORKER_STATE["engine"].claim_helpers(slot, workers)


def _prove_pik_job(args: tuple) -> tuple:
    """Worker: prove one key negotiation; returns ``(k_c, proof_bytes)``.

    Runs entirely against the forked copies of the parent's SnarkContext
    (circuit keys warm) and engine (kernel caches warm).
    """
    key, key_commitment, key_blinder, k_v, h_v = args
    ctx = _WORKER_STATE["ctx"]
    engine = _WORKER_STATE["engine"]
    if field_hash(k_v) != h_v:
        raise ProtocolError("buyer's h_v does not match the received k_v; aborting")
    k_c = (key + k_v) % R
    builder = CircuitBuilder()
    build_key_negotiation_circuit(
        builder, k_c, key_commitment, h_v, key, key_blinder, k_v
    )
    layout, assignment = builder.compile()
    keys = ctx.keys_for(layout)
    pi_k = prove(keys.pk, assignment, engine=engine)
    return k_c, pi_k.to_bytes()


class ProverPool:
    """A warm, persistent pool of pi_k prover processes."""

    def __init__(self, ctx: SnarkContext, workers: int = 1) -> None:
        if workers <= 0:
            raise ServiceError("prover pool needs at least one worker")
        self.workers = workers
        if "fork" not in multiprocessing.get_all_start_methods():
            raise ServiceError(
                "prover pool requires the fork start method (cache inheritance)"
            )
        # Warm everything the workers will inherit: the engine the forked
        # provers use and the pi_k circuit keys on a context bound to it
        # (key objects are engine-independent data, so the parent's cache
        # transfers directly).
        spare = len(os.sched_getaffinity(0)) // workers - 1
        engine = self._engine = SplitEngine(helpers=spare * workers)
        worker_ctx = SnarkContext(ctx.srs, engine=engine)
        worker_ctx._cache.update(ctx._cache)
        keys = key_negotiation_keys(worker_ctx)
        # Mirror any newly derived keys back so the caller's context also
        # benefits from the warm-up.
        ctx._cache.update(worker_ctx._cache)
        # The window tables every blinded commitment needs (n + margin
        # rows; key generation stops at n), built once, without proving —
        # and this first full-width MSM is also what forks the helpers, so
        # they exist before the pool does and hold complete tables.
        engine.msm_srs(ctx.srs, [0] * (keys.layout.n + DEGREE_MARGIN))
        _WORKER_STATE["ctx"] = worker_ctx
        _WORKER_STATE["engine"] = engine
        fork = multiprocessing.get_context("fork")
        self._pool = fork.Pool(workers, _claim_helpers, (fork.Value("i", 0), workers))
        self._helpers = self.helpers
        self._closed = False

    @property
    def helpers(self) -> int:
        """Helper processes alive now (0: every worker proves unsplit)."""
        return self._engine.live_helpers()

    async def prove_key_negotiation(
        self, asset: DataAsset, k_v: int, h_v: int
    ) -> tuple:
        """Prove pi_k for ``asset`` masked with ``k_v``; awaitable.

        Returns ``(k_c, proof_bytes)``.  Seller-side fairness check (the
        locked h_v must match the k_v received off-chain) runs in the
        worker and surfaces as :class:`ProtocolError`.
        """
        if self._closed:
            raise ServiceError("prover pool is closed")
        loop = asyncio.get_running_loop()
        fut: asyncio.Future = loop.create_future()

        def _done(result: tuple) -> None:
            loop.call_soon_threadsafe(_resolve, result, None)

        def _fail(exc: BaseException) -> None:
            loop.call_soon_threadsafe(_resolve, None, exc)

        def _resolve(result: Optional[tuple], exc: Optional[BaseException]) -> None:
            if fut.cancelled():
                return
            if exc is None:
                fut.set_result(result)
            else:
                fut.set_exception(exc)

        started = time.perf_counter()
        self._pool.apply_async(
            _prove_pik_job,
            (
                (
                    asset.key,
                    asset.key_commitment.value,
                    asset.key_blinder,
                    k_v,
                    h_v,
                ),
            ),
            callback=_done,
            error_callback=_fail,
        )
        try:
            result: tuple = await fut
        finally:
            alive = self.helpers
            lost, self._helpers = self._helpers - alive, alive
            if telemetry.metrics_enabled():
                telemetry.counter("service.pool.helpers_lost").inc(lost)
                telemetry.counter("service.pool.jobs").inc()
                telemetry.histogram(
                    "service.pool.prove.seconds", LATENCY_BUCKETS
                ).observe(time.perf_counter() - started)
        return result

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self._pool.terminate()
        self._pool.join()
        self._engine.close()

    def __enter__(self) -> "ProverPool":
        return self

    def __exit__(
        self,
        exc_type: Optional[type[BaseException]],
        exc: Optional[BaseException],
        tb: Optional[TracebackType],
    ) -> Optional[bool]:
        self.close()
        return None
