"""Persistent warm prover pool for the service node.

pi_k proving runs in long-lived forked workers, off the node's event
loop.  The parent warms the pi_k keys and the window tables of every
blinded commitment before it forks anything, so each worker's first
proof is warm.  When the CPU mask (``os.sched_getaffinity``) has at
least twice as many CPUs as the pool has workers, each worker's
:class:`~repro.backend.split.SplitEngine` forks the spare cores as its
own MSM helpers; a helper that dies costs the split, not the proof.

Workers are owned like helpers: forked processes running
:func:`~repro.backend.split.serve` on one pipe each.  The event loop
learns every reply — a result, an exception raised in the worker, or EOF
— from ``loop.add_reader``, so no thread runs.  A dead worker fails only
its in-flight request, with :class:`~repro.errors.BackendError`, and is
re-forked from the warm parent on a fresh pipe; queued requests wait.
"""

from __future__ import annotations

import asyncio
import multiprocessing
import os
import time
from multiprocessing.util import Finalize
from typing import Any

from repro import telemetry
from repro.backend.split import SplitEngine, serve
from repro.core.exchange import build_key_negotiation_circuit, key_negotiation_keys
from repro.core.snark import SnarkContext
from repro.core.tokens import DataAsset
from repro.errors import BackendError, ProtocolError, ServiceError
from repro.field.fr import MODULUS as R
from repro.plonk.circuit import CircuitBuilder
from repro.plonk.keys import DEGREE_MARGIN
from repro.plonk.prover import prove
from repro.primitives.hashing import field_hash
from repro.telemetry.metrics import LATENCY_BUCKETS

#: The warm context and engine, set in the parent before the workers fork.
_WORKER_STATE: dict[str, Any] = {}


def _prove_pik_job(args: tuple) -> tuple:
    """Worker: one pi_k proof on the inherited warm state -> ``(k_c, proof_bytes)``."""
    key, key_commitment, key_blinder, k_v, h_v = args
    ctx = _WORKER_STATE["ctx"]
    engine = _WORKER_STATE["engine"]
    if field_hash(k_v) != h_v:
        raise ProtocolError("buyer's h_v does not match the received k_v; aborting")
    k_c = (key + k_v) % R
    builder = CircuitBuilder()
    build_key_negotiation_circuit(builder, k_c, key_commitment, h_v, key, key_blinder, k_v)
    layout, assignment = builder.compile()
    keys = ctx.keys_for(layout)
    pi_k = prove(keys.pk, assignment, engine=engine)
    return k_c, pi_k.to_bytes()


def _work(conn: Any, inherited: list, helpers: int) -> None:
    """Forked worker: reply ``(ok, result or exception, live helpers)``."""
    engine = _WORKER_STATE["engine"]
    engine.helpers = helpers

    def answer(args: tuple) -> tuple:
        try:  # looked up per call, so a wrapper bound before the fork runs
            reply: tuple = (True, _prove_pik_job(args))
        except Exception as exc:
            reply = (False, exc)
        return reply + (engine.live_helpers(),)

    serve(conn, inherited, answer)
    engine.close()


class _Worker:
    """A forked prover, the pool's end of its pipe, the requests sent and
    replies read on it, and its helpers (the mask's spares, less losses)."""

    proc: Any
    conn: Any = None
    sent = read = helpers = 0

    def on_readable(self, reply: asyncio.Future) -> None:
        """Reader callback: the next reply, or EOF, is on the pipe."""
        if reply.done():  # its caller was cancelled: the next one reads it
            return
        try:
            message = self.conn.recv()
        except (EOFError, OSError) as exc:
            reply.set_exception(exc)
            return
        self.read += 1
        lost, self.helpers = self.helpers - message[2], message[2]
        if telemetry.metrics_enabled():
            telemetry.counter("service.pool.helpers_lost").inc(max(0, lost))
        reply.set_result(message[:2])


def _stop(workers: list) -> None:
    """Close every pipe (each worker reaps its helpers and exits), then
    join; also run at exit, before multiprocessing joins the workers."""
    for worker in workers:
        worker.conn.close()
    for worker in workers:
        worker.proc.join(10)  # a proof in flight ends first
        worker.proc.terminate()  # a no-op once it has exited
        worker.proc.join()


class ProverPool:
    """A warm, persistent pool of pi_k prover processes."""

    def __init__(self, ctx: SnarkContext, workers: int = 1) -> None:
        if workers <= 0:
            raise ServiceError("prover pool needs at least one worker")
        # Warm the pi_k keys (engine-independent: the caches transfer both
        # ways) and the window tables of n + margin rows on an engine with
        # no helpers: each worker forks its own.
        engine = SplitEngine()
        worker_ctx = SnarkContext(ctx.srs, engine=engine)
        worker_ctx._cache.update(ctx._cache)
        keys = key_negotiation_keys(worker_ctx)
        ctx._cache.update(worker_ctx._cache)
        engine.msm_srs(ctx.srs, [0] * (keys.layout.n + DEGREE_MARGIN))
        _WORKER_STATE.update(ctx=worker_ctx, engine=engine)
        self._spare = max(0, len(os.sched_getaffinity(0)) // workers - 1)
        self._workers: list[_Worker] = []
        self._idle: asyncio.Queue = asyncio.Queue()
        # Registered before the first fork, so a fork that fails stops the
        # workers already forked instead of leaving them for exit to join.
        self._shutdown = Finalize(self, _stop, (self._workers,), exitpriority=0)
        try:
            for _ in range(workers):
                worker = _Worker()
                self._fork(worker)
                self._workers.append(worker)
                self._idle.put_nowait(worker)
        except BaseException:
            self._shutdown()
            raise

    def _fork(self, worker: _Worker) -> None:
        """(Re)fork ``worker`` on a fresh pipe; ``start`` reaps a dead one."""
        if worker.conn is not None:
            worker.conn.close()
            if telemetry.metrics_enabled():
                telemetry.counter("service.pool.restarts").inc()
        fork = multiprocessing.get_context("fork")
        ours, theirs = fork.Pipe()
        siblings = [w.conn for w in self._workers if w is not worker and w.conn]
        proc = fork.Process(target=_work, args=(theirs, [ours, *siblings], self._spare))
        proc.start()
        theirs.close()
        worker.proc = proc
        worker.conn = ours
        worker.sent, worker.read, worker.helpers = 0, 0, self._spare

    @property
    def helpers(self) -> int:
        """Helpers chosen from the CPU mask, less those lost since."""
        return sum(worker.helpers for worker in self._workers)

    async def prove_key_negotiation(self, asset: DataAsset, k_v: int, h_v: int) -> tuple:
        """Prove pi_k for ``asset`` masked with ``k_v``: ``(k_c, proof_bytes)``.
        A wrong h_v raises :class:`ProtocolError`, a dead worker
        :class:`BackendError`."""
        if not self._shutdown.still_active():
            raise ServiceError("prover pool is closed")
        started, loop = time.perf_counter(), asyncio.get_running_loop()
        worker = await self._idle.get()
        try:
            if not worker.proc.is_alive():  # died idle: no request is lost
                self._fork(worker)
            worker.conn.send((asset.key, asset.key_commitment.value, asset.key_blinder, k_v, h_v))
            worker.sent += 1
            while worker.read < worker.sent:  # past the replies of cancelled callers
                reply: asyncio.Future = loop.create_future()
                loop.add_reader(worker.conn.fileno(), worker.on_readable, reply)
                try:
                    ok, value = await reply
                finally:
                    loop.remove_reader(worker.conn.fileno())
        except (EOFError, OSError):
            dead = worker.proc
            self._fork(worker)
            raise BackendError("prover worker died (exit code %s)" % dead.exitcode) from None
        finally:
            self._idle.put_nowait(worker)
            if telemetry.metrics_enabled():
                telemetry.counter("service.pool.jobs").inc()
                telemetry.histogram(
                    "service.pool.prove.seconds", LATENCY_BUCKETS
                ).observe(time.perf_counter() - started)
        if not ok:
            raise value
        return tuple(value)

    def close(self) -> None:
        self._shutdown()

    def __enter__(self) -> "ProverPool":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()
